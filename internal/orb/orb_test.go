package orb_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/orb"
)

type echoReq struct {
	Msg string
	N   int
}

type echoResp struct {
	Msg string
	N   int
}

func newEchoServer(t *testing.T) *orb.Server {
	t.Helper()
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	sv := orb.NewServant()
	orb.Method(sv, "echo", func(req echoReq) (echoResp, error) {
		return echoResp{Msg: req.Msg, N: req.N + 1}, nil
	})
	orb.Method(sv, "fail", func(req echoReq) (echoResp, error) {
		return echoResp{}, fmt.Errorf("application rejected %q", req.Msg)
	})
	srv.Register("echo-object", sv)
	return srv
}

func TestInvokeRoundTrip(t *testing.T) {
	srv := newEchoServer(t)
	c := orb.Dial(srv.Addr(), orb.ClientConfig{})
	defer c.Close()
	resp, err := orb.Call[echoReq, echoResp](c, "echo-object", "echo", echoReq{Msg: "hi", N: 41})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "hi" || resp.N != 42 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestSequentialCallsReuseConnection(t *testing.T) {
	srv := newEchoServer(t)
	c := orb.Dial(srv.Addr(), orb.ClientConfig{})
	defer c.Close()
	for k := 0; k < 100; k++ {
		resp, err := orb.Call[echoReq, echoResp](c, "echo-object", "echo", echoReq{N: k})
		if err != nil {
			t.Fatal(err)
		}
		if resp.N != k+1 {
			t.Fatalf("resp.N = %d, want %d", resp.N, k+1)
		}
	}
	if c.Retries() != 0 {
		t.Errorf("retries = %d, want 0 on a healthy link", c.Retries())
	}
}

func TestApplicationErrorsNotRetried(t *testing.T) {
	srv := newEchoServer(t)
	c := orb.Dial(srv.Addr(), orb.ClientConfig{Retries: 5})
	defer c.Close()
	_, err := orb.Call[echoReq, echoResp](c, "echo-object", "fail", echoReq{Msg: "x"})
	var appErr *orb.AppError
	if !errors.As(err, &appErr) {
		t.Fatalf("err = %v, want *AppError", err)
	}
	if !strings.Contains(appErr.Msg, "application rejected") {
		t.Fatalf("appErr = %q", appErr.Msg)
	}
	if c.Retries() != 0 {
		t.Errorf("application errors must not be retried, got %d retries", c.Retries())
	}
}

func TestUnknownObjectAndMethod(t *testing.T) {
	srv := newEchoServer(t)
	c := orb.Dial(srv.Addr(), orb.ClientConfig{})
	defer c.Close()
	err := c.Invoke("ghost", "echo", echoReq{}, nil)
	if err == nil || !strings.Contains(err.Error(), "no such object") {
		t.Fatalf("unknown object: %v", err)
	}
	err = c.Invoke("echo-object", "ghost", echoReq{}, nil)
	if err == nil || !strings.Contains(err.Error(), "no such method") {
		t.Fatalf("unknown method: %v", err)
	}
}

// TestClientRedialsAfterServerRestart kills the server with calls in
// flight and restarts it on the same address ("services may be moved"):
// every pending call sees a transport failure and completes through the
// retry machinery on a fresh dial, and so does the next call.
func TestClientRedialsAfterServerRestart(t *testing.T) {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	const inflight = 3
	entered := make(chan struct{}, inflight)
	release := make(chan struct{})
	sv := orb.NewServant()
	orb.Method(sv, "echo", func(req echoReq) (echoResp, error) {
		return echoResp{N: req.N + 1}, nil
	})
	orb.Method(sv, "hold", func(req echoReq) (echoResp, error) {
		select {
		case entered <- struct{}{}:
		default: // a retried call, after the restart
		}
		<-release
		return echoResp{N: req.N + 1}, nil
	})
	srv.Register("echo-object", sv)

	c := orb.Dial(addr, orb.ClientConfig{Retries: 20, RetryDelay: 20 * time.Millisecond})
	defer c.Close()
	if _, err := orb.Call[echoReq, echoResp](c, "echo-object", "echo", echoReq{N: 1}); err != nil {
		t.Fatal(err)
	}
	held := make(chan error, inflight)
	for k := 0; k < inflight; k++ {
		go func(k int) {
			resp, err := orb.Call[echoReq, echoResp](c, "echo-object", "hold", echoReq{N: k})
			if err == nil && resp.N != k+1 {
				err = fmt.Errorf("held call %d got %+v", k, resp)
			}
			held <- err
		}(k)
	}
	for k := 0; k < inflight; k++ {
		<-entered
	}

	// Kill the server under the held calls and restart on the same
	// address.
	srv.Sever()
	close(release)
	srv.Close()
	restarted := make(chan *orb.Server, 1)
	go func() {
		for k := 0; k < 50; k++ {
			s2, err := orb.NewServer(addr)
			if err == nil {
				s2.Register("echo-object", sv)
				restarted <- s2
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		restarted <- nil
	}()
	resp, err := orb.Call[echoReq, echoResp](c, "echo-object", "echo", echoReq{N: 10})
	srv2 := <-restarted
	if srv2 == nil {
		t.Fatal("could not restart server on the same address")
	}
	defer srv2.Close()
	if err != nil {
		t.Fatalf("call across restart: %v", err)
	}
	if resp.N != 11 {
		t.Fatalf("resp = %+v", resp)
	}
	for k := 0; k < inflight; k++ {
		if err := <-held; err != nil {
			t.Errorf("call in flight across the restart: %v", err)
		}
	}
	if got := c.Retries(); got < inflight {
		t.Errorf("retries = %d, want at least one per call that was in flight (%d)", got, inflight)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := newEchoServer(t)
	const clients = 8
	const calls = 25
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := orb.Dial(srv.Addr(), orb.ClientConfig{})
			defer c.Close()
			for k := 0; k < calls; k++ {
				resp, err := orb.Call[echoReq, echoResp](c, "echo-object", "echo", echoReq{N: w*1000 + k})
				if err != nil {
					t.Errorf("client %d: %v", w, err)
					return
				}
				if resp.N != w*1000+k+1 {
					t.Errorf("client %d: resp %d", w, resp.N)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestNamingService(t *testing.T) {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	naming := orb.NewNaming()
	srv.Register(orb.NamingObject, naming.Servant())

	c := orb.Dial(srv.Addr(), orb.ClientConfig{})
	defer c.Close()
	nc := orb.NewNamingClient(c)
	if err := nc.Bind("workflow-repository", "10.0.0.1:7001"); err != nil {
		t.Fatal(err)
	}
	if err := nc.Bind("workflow-execution", "10.0.0.2:7002"); err != nil {
		t.Fatal(err)
	}
	addr, err := nc.Resolve("workflow-repository")
	if err != nil || addr != "10.0.0.1:7001" {
		t.Fatalf("resolve = %q, %v", addr, err)
	}
	names, err := nc.Names()
	if err != nil || len(names) != 2 {
		t.Fatalf("names = %v, %v", names, err)
	}
	// Rebinding models a moved service.
	if err := nc.Bind("workflow-repository", "10.0.0.9:7001"); err != nil {
		t.Fatal(err)
	}
	addr, _ = nc.Resolve("workflow-repository")
	if addr != "10.0.0.9:7001" {
		t.Fatalf("after rebind = %q", addr)
	}
	if err := nc.Unbind("workflow-execution"); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Resolve("workflow-execution"); err == nil {
		t.Fatal("resolve after unbind must fail")
	}
}
