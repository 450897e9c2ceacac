package orb_test

import (
	"testing"
	"time"

	"repro/internal/orb"
)

// benchClient returns a warmed client of a loopback echo server whose
// servant takes service per call.
func benchClient(b *testing.B, service time.Duration) *orb.Client {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	sv := orb.NewServant()
	orb.Method(sv, "echo", func(req echoReq) (echoResp, error) {
		if service > 0 {
			time.Sleep(service)
		}
		return echoResp{Msg: req.Msg, N: req.N + 1}, nil
	})
	srv.Register("echo-object", sv)
	c := orb.Dial(srv.Addr(), orb.ClientConfig{})
	b.Cleanup(c.Close)

	// Warm the connection.
	if _, err := orb.Call[echoReq, echoResp](c, "echo-object", "echo", echoReq{}); err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkInvokeRoundTrip(b *testing.B) {
	c := benchClient(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := orb.Call[echoReq, echoResp](c, "echo-object", "echo", echoReq{Msg: "payload", N: i})
		if err != nil {
			b.Fatal(err)
		}
		if resp.N != i+1 {
			b.Fatal("bad reply")
		}
	}
}

// BenchmarkInvokeParallel drives one client from 8 goroutines per CPU
// against a servant that takes 1ms per call: ns/op falls below the
// service time only if calls overlap on the client's connection.
func BenchmarkInvokeParallel(b *testing.B) {
	c := benchClient(b, time.Millisecond)
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for n := 0; pb.Next(); n++ {
			resp, err := orb.Call[echoReq, echoResp](c, "echo-object", "echo", echoReq{Msg: "payload", N: n})
			if err != nil {
				b.Error(err)
				return
			}
			if resp.N != n+1 {
				b.Error("bad reply")
				return
			}
		}
	})
}
