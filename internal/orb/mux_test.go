package orb_test

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/orb"
)

// transports runs f over loopback TCP and over the in-process
// MemNetwork, whose synchronous pipes deadlock anything that writes
// where it should be reading.
func transports(t *testing.T, f func(t *testing.T, srv *orb.Server, dial orb.Dialer)) {
	t.Run("tcp", func(t *testing.T) {
		srv, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		f(t, srv, nil)
	})
	t.Run("mem", func(t *testing.T) {
		mem := orb.NewMemNetwork()
		ln, err := mem.Listen("mem:srv")
		if err != nil {
			t.Fatal(err)
		}
		srv := orb.NewServerOn(ln)
		t.Cleanup(srv.Close)
		f(t, srv, mem.Dial)
	})
}

// TestConcurrentCallsShareOneConnection: the servant holds every call
// until all N have arrived, so the test completes only if N calls are in
// flight at once on the client's single connection.
func TestConcurrentCallsShareOneConnection(t *testing.T) {
	transports(t, func(t *testing.T, srv *orb.Server, dial orb.Dialer) {
		const n = 8
		var arrived sync.WaitGroup
		arrived.Add(n)
		sv := orb.NewServant()
		orb.Method(sv, "meet", func(k int) (int, error) {
			arrived.Done()
			arrived.Wait()
			return k * k, nil
		})
		srv.Register("svc", sv)

		var dials atomic.Int64
		c := orb.Dial(srv.Addr(), orb.ClientConfig{Retries: -1, Dialer: countDials(dial, &dials)})
		defer c.Close()
		var wg sync.WaitGroup
		for k := 0; k < n; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				got, err := orb.Call[int, int](c, "svc", "meet", k)
				if err != nil {
					t.Errorf("caller %d: %v", k, err)
				} else if got != k*k {
					t.Errorf("caller %d got %d", k, got)
				}
			}(k)
		}
		wg.Wait()
		if got := dials.Load(); got != 1 {
			t.Errorf("dials = %d, want 1", got)
		}
	})
}

// countDials wraps dial (nil selects TCP) to count connections opened.
func countDials(dial orb.Dialer, n *atomic.Int64) orb.Dialer {
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return func(addr string) (net.Conn, error) {
		n.Add(1)
		return dial(addr)
	}
}

// TestRepliesOutOfOrder: calls are released in the reverse of the order
// they were issued, so every reply overtakes the requests before it and
// must still reach its own caller.
func TestRepliesOutOfOrder(t *testing.T) {
	transports(t, func(t *testing.T, srv *orb.Server, dial orb.Dialer) {
		const n = 6
		entered := make(chan int, n)
		var gates [n]chan struct{}
		for k := range gates {
			gates[k] = make(chan struct{})
		}
		sv := orb.NewServant()
		orb.Method(sv, "hold", func(k int) (string, error) {
			entered <- k
			<-gates[k]
			return strings.Repeat("r", k+1), nil
		})
		srv.Register("svc", sv)

		c := orb.Dial(srv.Addr(), orb.ClientConfig{Retries: -1, Dialer: dial})
		defer c.Close()
		replies := make(chan int, n)
		for k := 0; k < n; k++ {
			go func(k int) {
				got, err := orb.Call[int, string](c, "svc", "hold", k)
				if err != nil || got != strings.Repeat("r", k+1) {
					t.Errorf("caller %d: %q, %v", k, got, err)
				}
				replies <- k
			}(k)
		}
		for k := 0; k < n; k++ {
			<-entered
		}
		for k := n - 1; k >= 0; k-- {
			close(gates[k])
			if got := <-replies; got != k {
				t.Fatalf("released call %d, call %d returned", k, got)
			}
		}
	})
}

// TestPendingCallsFailWhenServerDies: severing the server fails every
// in-flight call with a transport error, not a servant error.
func TestPendingCallsFailWhenServerDies(t *testing.T) {
	transports(t, func(t *testing.T, srv *orb.Server, dial orb.Dialer) {
		const n = 4
		entered := make(chan struct{}, n)
		release := make(chan struct{})
		sv := orb.NewServant()
		orb.Method(sv, "hold", func(k int) (int, error) {
			entered <- struct{}{}
			<-release
			return k, nil
		})
		srv.Register("svc", sv)

		c := orb.Dial(srv.Addr(), orb.ClientConfig{Retries: -1, Dialer: dial})
		defer c.Close()
		errs := make(chan error, n)
		for k := 0; k < n; k++ {
			go func(k int) {
				_, err := orb.Call[int, int](c, "svc", "hold", k)
				errs <- err
			}(k)
		}
		for k := 0; k < n; k++ {
			<-entered
		}
		srv.Sever() // two-phase: cut the connections, then let the handlers go
		for k := 0; k < n; k++ {
			err := <-errs
			var app *orb.AppError
			if err == nil || errors.As(err, &app) || errors.Is(err, orb.ErrClosed) {
				t.Errorf("pending call ended with %v, want a transport error", err)
			}
		}
		close(release)
		srv.Close()
		if c.Connected() {
			t.Error("client still reports a live connection")
		}
	})
}

// TestStaleConnectionRedialsWithoutRetry: a server that restarts while
// the client idles leaves a dead cached connection. The next call must
// go through on a fresh dial even with retries disabled — whether the
// client's reader noticed the close first or the call's own write did.
func TestStaleConnectionRedialsWithoutRetry(t *testing.T) {
	mem := orb.NewMemNetwork()
	sv := orb.NewServant()
	orb.Method(sv, "id", func(k int) (int, error) { return k, nil })
	start := func() *orb.Server {
		ln, err := mem.Listen("mem:srv")
		if err != nil {
			t.Fatal(err)
		}
		srv := orb.NewServerOn(ln)
		srv.Register("svc", sv)
		return srv
	}
	c := orb.Dial("mem:srv", orb.ClientConfig{Retries: -1, Dialer: mem.Dial})
	defer c.Close()
	for round := 0; round < 20; round++ {
		srv := start()
		if got, err := orb.Call[int, int](c, "svc", "id", round); err != nil || got != round {
			t.Fatalf("round %d: %d, %v", round, got, err)
		}
		srv.Close()
	}
	if c.Retries() != 0 {
		t.Errorf("retries = %d, want 0", c.Retries())
	}
}

// TestCloseContract: Close fails pending calls with ErrClosed without
// waiting for the servant, and a closed client refuses further calls
// instead of re-dialling.
func TestCloseContract(t *testing.T) {
	transports(t, func(t *testing.T, srv *orb.Server, dial orb.Dialer) {
		entered := make(chan struct{})
		release := make(chan struct{})
		sv := orb.NewServant()
		orb.Method(sv, "hold", func(k int) (int, error) {
			close(entered)
			<-release
			return k, nil
		})
		srv.Register("svc", sv)
		defer close(release)

		var dials atomic.Int64
		c := orb.Dial(srv.Addr(), orb.ClientConfig{Retries: 5, RetryDelay: time.Hour, Dialer: countDials(dial, &dials)})
		pending := make(chan error, 1)
		go func() {
			_, err := orb.Call[int, int](c, "svc", "hold", 1)
			pending <- err
		}()
		<-entered
		c.Close() // returns although the servant is still holding the call
		if err := <-pending; !errors.Is(err, orb.ErrClosed) {
			t.Fatalf("pending call ended with %v, want ErrClosed", err)
		}
		if err := c.Invoke("svc", "hold", 2, nil); !errors.Is(err, orb.ErrClosed) {
			t.Fatalf("call after Close: %v, want ErrClosed", err)
		}
		c.Close() // idempotent
		if got := dials.Load(); got != 1 {
			t.Errorf("dials = %d, want 1 (no re-dial after Close)", got)
		}
		if c.Retries() != 0 {
			t.Errorf("retries = %d, want 0 (ErrClosed is not retried)", c.Retries())
		}
	})
}

// TestErrorsLeaveStreamInSync: unknown objects and methods, servant
// errors, a request of the wrong type and an unencodable argument all
// fail their own call only — the next call on the same connection
// succeeds.
func TestErrorsLeaveStreamInSync(t *testing.T) {
	transports(t, func(t *testing.T, srv *orb.Server, dial orb.Dialer) {
		sv := orb.NewServant()
		orb.Method(sv, "echo", func(req echoReq) (echoResp, error) {
			return echoResp{Msg: req.Msg, N: req.N + 1}, nil
		})
		orb.Method(sv, "fail", func(req echoReq) (echoResp, error) {
			return echoResp{}, errors.New("rejected")
		})
		orb.Method(sv, "bad-reply", func(req echoReq) (chan int, error) { return nil, nil })
		srv.Register("echo-object", sv)

		var dials atomic.Int64
		c := orb.Dial(srv.Addr(), orb.ClientConfig{Retries: -1, Dialer: countDials(dial, &dials)})
		defer c.Close()
		check := func(step string) {
			t.Helper()
			resp, err := orb.Call[echoReq, echoResp](c, "echo-object", "echo", echoReq{Msg: step, N: 1})
			if err != nil || resp.Msg != step || resp.N != 2 {
				t.Fatalf("call after %s: %+v, %v", step, resp, err)
			}
		}
		check("dial")
		for _, tc := range []struct {
			step, object, method string
			arg                  any
			want                 string
		}{
			{"unknown object", "ghost", "echo", echoReq{Msg: "x"}, "no such object"},
			{"unknown method", "echo-object", "ghost", echoReq{Msg: "x"}, "no such method"},
			{"servant error", "echo-object", "fail", echoReq{}, "rejected"},
			{"wrong request type", "echo-object", "echo", "a string", "decode echo request"},
			{"unencodable reply", "echo-object", "bad-reply", echoReq{}, "encode bad-reply reply"},
			{"unencodable request", "echo-object", "echo", make(chan int), "encode echo-object.echo request"},
		} {
			err := c.Invoke(tc.object, tc.method, tc.arg, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: err = %v, want %q", tc.step, err, tc.want)
			}
			check(tc.step)
		}
		// A reply that does not fit the caller's variable is that call's
		// error, not the connection's.
		var wrong int
		if err := c.Invoke("echo-object", "echo", echoReq{}, &wrong); err == nil || !strings.Contains(err.Error(), "decode reply") {
			t.Fatalf("mismatched reply type: %v", err)
		}
		check("mismatched reply type")
		if got := dials.Load(); got != 1 {
			t.Errorf("dials = %d, want 1: an error resynchronised by re-dialling", got)
		}
	})
}

// TestCallTimeoutAbandonsOnlyItsOwnCall: a call that times out gives up
// its ID and nothing else — the connection keeps serving calls while the
// abandoned request is still running on the server, and its late reply
// is dropped.
func TestCallTimeoutAbandonsOnlyItsOwnCall(t *testing.T) {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	sv := orb.NewServant()
	orb.Method(sv, "hold", func(k int) (int, error) {
		close(entered)
		<-release
		close(done)
		return k, nil
	})
	orb.Method(sv, "id", func(k int) (int, error) { return k, nil })
	srv.Register("svc", sv)

	var dials atomic.Int64
	c := orb.Dial(srv.Addr(), orb.ClientConfig{Retries: -1, CallTimeout: 50 * time.Millisecond, Dialer: countDials(nil, &dials)})
	defer c.Close()
	if _, err := orb.Call[int, int](c, "svc", "hold", 1); err == nil {
		t.Fatal("held call did not time out")
	}
	<-entered
	if got, err := orb.Call[int, int](c, "svc", "id", 2); err != nil || got != 2 {
		t.Fatalf("call beside an abandoned one: %d, %v", got, err)
	}
	unblock()
	<-done // the late reply, for an ID nobody waits on, is now on its way
	for k := 3; k < 6; k++ {
		if got, err := orb.Call[int, int](c, "svc", "id", k); err != nil || got != k {
			t.Fatalf("call %d after a late reply: %d, %v", k, got, err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("dials = %d, want 1", got)
	}
}

// countingConn counts bytes written.
type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.written.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// TestTypeDescriptorsSentOncePerConnection: the first call of a method
// carries the gob descriptors of its header and argument types; the
// second, identical call carries values only.
func TestTypeDescriptorsSentOncePerConnection(t *testing.T) {
	srv := newEchoServer(t)
	var written atomic.Int64
	c := orb.Dial(srv.Addr(), orb.ClientConfig{Dialer: func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		return countingConn{Conn: conn, written: &written}, err
	}})
	defer c.Close()
	var sizes [3]int64
	for k := range sizes {
		before := written.Load()
		if _, err := orb.Call[echoReq, echoResp](c, "echo-object", "echo", echoReq{Msg: "same", N: 7}); err != nil {
			t.Fatal(err)
		}
		sizes[k] = written.Load() - before
	}
	if sizes[1] >= sizes[0] {
		t.Errorf("second call wrote %d bytes, first %d: descriptors were re-sent", sizes[1], sizes[0])
	}
	if sizes[2] != sizes[1] {
		t.Errorf("steady-state calls wrote %d then %d bytes", sizes[1], sizes[2])
	}
}
