package store_test

import (
	"fmt"
	"testing"

	"repro/internal/store"
)

func benchStore(b *testing.B, st store.Store) {
	b.Helper()
	payload := make([]byte, 256)
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			id := store.ID(fmt.Sprintf("bench/obj%d", i%1024))
			if err := st.Write(id, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		if err := st.Write("bench/read", payload); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Read("bench/read"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMemStore(b *testing.B) {
	benchStore(b, store.NewMemStore())
}
