// Package orb is the distribution substrate of the workflow system: a
// small object request broker that stands in for the paper's CORBA
// ORB/IIOP layer (Fig. 4). Services (the workflow repository service and
// workflow execution service) are exported as named servants on TCP
// endpoints; clients invoke them location-transparently through typed
// stubs, with automatic retry of idempotent invocations over temporary
// network failures — the system-level behaviour Section 3 assumes.
//
// The wire protocol is one gob stream per direction of a connection.
// A request frame is a header value (request ID, object, method, call
// metadata) followed by the typed argument value; a reply frame is a
// header value (the request's ID, servant error) followed, on success,
// by the typed result value. Both sides keep one encoder and one
// decoder for the life of the connection, so a type's descriptor
// crosses the wire once and every payload is encoded once. Frames are
// tagged, not ordered: a client has any number of calls in flight on
// its one connection, the server runs each request in its own
// goroutine, and replies return in completion order to be routed to
// their callers by ID. Fault injection wraps the dialer (see
// internal/failure).
package orb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"sync"
	"time"

	"repro/internal/timers"
)

// requestHeader opens a request frame; the argument value follows it.
// Meta carries out-of-band call metadata (trace propagation:
// "trace-id", "span-id") without touching any method's argument type.
type requestHeader struct {
	ID     uint64
	Object string
	Method string
	Meta   map[string]string
}

// replyHeader opens a reply frame. Failed marks a servant error (AppErr
// is its text, never retried), as distinct from a transport error; the
// result value follows only when Failed is unset.
type replyHeader struct {
	ID     uint64
	Failed bool
	AppErr string
}

// ErrNoObject is returned for invocations on unregistered servants.
var ErrNoObject = errors.New("no such object")

// ErrNoMethod is returned for unknown methods of a servant.
var ErrNoMethod = errors.New("no such method")

// ErrClosed is returned by invocations issued after Client.Close, and
// to the calls that were pending when it ran.
var ErrClosed = errors.New("orb: client closed")

// errEncode marks a payload gob could not encode: nothing of the frame
// was committed, and the connection is still in sync.
var errEncode = errors.New("gob encode")

// AppError wraps an error returned by a remote servant (as opposed to a
// transport failure). AppErrors are never retried.
type AppError struct{ Msg string }

// Error implements the error interface.
func (e *AppError) Error() string { return e.Msg }

// wire is the sending half of a connection: its one gob encoder behind
// a lock held for a single frame's encode and write.
type wire struct {
	conn net.Conn

	mu         sync.Mutex
	enc        *gob.Encoder
	head, body bytes.Buffer  // the frame being assembled
	cur        *bytes.Buffer // where the encoder is writing
}

func newWire(conn net.Conn) *wire {
	w := &wire{conn: conn}
	w.enc = gob.NewEncoder(w)
	return w
}

// Write implements io.Writer for the encoder.
func (w *wire) Write(p []byte) (int, error) { return w.cur.Write(p) }

// send writes one frame: the header value, then the payload value
// unless payload is nil. The payload is encoded first, so a value gob
// cannot encode is reported (wrapping errEncode) before anything is
// committed; type descriptors the failed encode did emit stay queued
// for the next frame, because the encoder will not send them again. A
// non-zero deadline bounds the write in wall time.
func (w *wire) send(deadline time.Time, header, payload any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if payload != nil {
		w.cur = &w.body
		if err := w.enc.Encode(payload); err != nil {
			return fmt.Errorf("%w: %v", errEncode, err)
		}
	}
	w.cur = &w.head
	err := w.enc.Encode(header)
	if err == nil {
		if !deadline.IsZero() {
			_ = w.conn.SetWriteDeadline(deadline)
		}
		w.head.Write(w.body.Bytes())
		_, err = w.conn.Write(w.head.Bytes())
	}
	w.head.Reset()
	w.body.Reset()
	return err
}

// boundCall is one decoded request, ready to run.
type boundCall func(meta map[string]string) (any, error)

// method decodes its request payload off a connection's decoder — on
// the connection's read loop, the stream's only reader — and returns
// the call to run.
type method func(dec *gob.Decoder) (boundCall, error)

// Servant is a dispatch table of methods.
type Servant struct {
	mu      sync.RWMutex
	methods map[string]method
}

// NewServant returns an empty servant.
func NewServant() *Servant {
	return &Servant{methods: make(map[string]method)}
}

// Method registers a typed method on a servant: the request and reply
// types are gob-encoded across the wire.
func Method[Req, Resp any](s *Servant, name string, f func(Req) (Resp, error)) {
	MethodMeta(s, name, func(_ map[string]string, req Req) (Resp, error) { return f(req) })
}

// MethodMeta registers a typed method that also receives the request's
// call metadata — the servant-side half of trace propagation (the
// client sends metadata with InvokeMeta/CallMeta). meta is nil when the
// caller sent none.
func MethodMeta[Req, Resp any](s *Servant, name string, f func(meta map[string]string, req Req) (Resp, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.methods[name] = func(dec *gob.Decoder) (boundCall, error) {
		var req Req
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("decode %s request: %w", name, err)
		}
		return func(meta map[string]string) (any, error) { return f(meta, req) }, nil
	}
}

// Server exports servants on a TCP endpoint.
type Server struct {
	ln net.Listener
	wg sync.WaitGroup

	mu       sync.RWMutex
	servants map[string]*Servant
	conns    map[net.Conn]struct{}
	closed   bool
}

// NewServer listens on addr (use "127.0.0.1:0" for an ephemeral port)
// and serves until Close.
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("orb listen: %w", err)
	}
	return NewServerOn(ln), nil
}

// NewServerOn serves on an already-created listener — the seam for
// non-TCP transports (a MemNetwork listener puts a whole deployment in
// one process for the simulation harness). Close closes the listener.
func NewServerOn(ln net.Listener) *Server {
	s := &Server{ln: ln, servants: make(map[string]*Servant), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Register exports a servant under an object name.
func (s *Server) Register(object string, servant *Servant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.servants[object] = servant
}

// Close stops accepting, severs open connections and waits for their
// handlers.
func (s *Server) Close() {
	s.Sever()
	s.wg.Wait()
}

// Sever stops accepting and severs every open connection without
// waiting for in-flight handlers. It exists for two-phase shutdown: a
// caller whose handlers are blocked on an external event (the
// simulation harness gates implementations on injected releases) must
// first cut the connections — so every peer observes a transport
// failure, never a late reply — then unblock the handlers, then Close
// to reap them. Calling Close alone in that situation would deadlock
// on its handler wait.
func (s *Server) Sever() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	_ = s.ln.Close()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// serveConn reads request frames off one connection and runs each in
// its own goroutine; replies go back as their handlers finish, in any
// order, serialised by the connection's write lock. The read loop never
// writes, so it never blocks behind a peer that is not reading.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	w := newWire(conn)
	dec := gob.NewDecoder(conn)
	var h requestHeader
	for {
		h = requestHeader{} // gob leaves fields absent from the wire untouched
		if err := dec.Decode(&h); err != nil {
			return // EOF or broken peer
		}
		run := s.bind(&h, dec)
		id, name, meta := h.ID, h.Method, h.Meta
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			resp, err := run(meta)
			sendReply(w, id, name, resp, err)
		}()
	}
}

// sendReply writes the reply frame for request id: the result, or the
// servant's error — which a result gob cannot encode becomes.
func sendReply(w *wire, id uint64, name string, resp any, err error) {
	if err == nil {
		err = w.send(time.Time{}, &replyHeader{ID: id}, resp)
		if err == nil {
			return
		}
		if !errors.Is(err, errEncode) {
			_ = w.conn.Close() // part of a frame may be out; the read loop ends on the close
			return
		}
		err = fmt.Errorf("encode %s reply: %w", name, err)
	}
	if w.send(time.Time{}, &replyHeader{ID: id, Failed: true, AppErr: err.Error()}, nil) != nil {
		_ = w.conn.Close()
	}
}

// bind consumes the payload that follows request header h and returns
// the call to run. An unknown object or method, or a payload that does
// not decode as the method's request type, still consumes exactly one
// value, so the stream stays in sync; it binds to a call that reports
// the error.
func (s *Server) bind(h *requestHeader, dec *gob.Decoder) boundCall {
	m, err := s.lookup(h.Object, h.Method)
	if err == nil {
		var run boundCall
		if run, err = m(dec); err == nil {
			return run
		}
	} else if derr := dec.DecodeValue(reflect.Value{}); derr != nil { // discard the payload
		err = derr
	}
	return func(map[string]string) (any, error) { return nil, err }
}

// lookup finds a registered method.
func (s *Server) lookup(object, name string) (method, error) {
	s.mu.RLock()
	servant, ok := s.servants[object]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoObject, object)
	}
	servant.mu.RLock()
	m, ok := servant.methods[name]
	servant.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMethod, name)
	}
	return m, nil
}

// Dialer opens transport connections; fault injectors substitute their
// own (see internal/failure).
type Dialer func(addr string) (net.Conn, error)

// ClientConfig tunes a client stub.
type ClientConfig struct {
	// Retries is the number of additional attempts after a transport
	// failure. Application errors are never retried. Default 3; any
	// negative value means no retries (a single attempt) — zero cannot
	// express that, it selects the default.
	Retries int
	// RetryDelay separates attempts. Default 10ms.
	RetryDelay time.Duration
	// Dialer overrides the transport (fault injection). Default net.Dial
	// with a 2s timeout.
	Dialer Dialer
	// CallTimeout bounds one attempt. Default 5s; any negative value
	// disables the per-attempt deadline — zero cannot express that, it
	// selects the default.
	CallTimeout time.Duration
	// Clock paces the retry backoff. Default timers.WallClock; tests
	// inject timers.FakeClock to drive retries without real sleeping.
	Clock timers.Clock
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Retries == 0 {
		c.Retries = 3
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryDelay == 0 {
		c.RetryDelay = 10 * time.Millisecond
	}
	if c.Dialer == nil {
		c.Dialer = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		}
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 5 * time.Second
	} else if c.CallTimeout < 0 {
		c.CallTimeout = 0
	}
	if c.Clock == nil {
		c.Clock = timers.WallClock{}
	}
	return c
}

// Client invokes servants on one endpoint over one persistent
// connection, dialled lazily and re-dialled after a transport failure.
// Any number of goroutines may invoke concurrently: each call is a
// tagged frame, the write lock is held only while a frame is encoded
// and written, and one reader goroutine per connection routes replies
// to their callers by ID, so N callers have N calls in flight and a
// slow servant delays only its own caller.
type Client struct {
	addr string
	cfg  ClientConfig

	dialMu  sync.Mutex     // one dial at a time; never held together with mu
	readers sync.WaitGroup // the connections' reader goroutines

	mu      sync.Mutex
	cc      *clientConn // nil until the first call and after a failure
	closed  bool
	retries int
}

// Dial returns a client for the endpoint. The connection is established
// lazily.
func Dial(addr string, cfg ClientConfig) *Client {
	return &Client{addr: addr, cfg: cfg.withDefaults()}
}

// Retries reports how many transport retries the client has performed
// (observability for the lossy-network experiments).
func (c *Client) Retries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries
}

// Connected reports whether the client holds a live connection.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cc != nil && !c.cc.failed()
}

// Close retires the client: the connection is closed, every pending
// call fails with ErrClosed without being waited for, and later
// invocations return ErrClosed instead of re-dialling. It returns once
// the reader goroutine has exited.
func (c *Client) Close() {
	c.mu.Lock()
	cc := c.cc
	c.cc, c.closed = nil, true
	c.mu.Unlock()
	if cc != nil {
		cc.fail(ErrClosed)
	}
	c.readers.Wait()
}

// cached returns the live connection, or nil when there is none.
func (c *Client) cached() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.cc != nil && c.cc.failed() {
		c.cc = nil
	}
	return c.cc, nil
}

// conn returns the live connection, dialling one if there is none;
// fresh reports that this call dialled it.
func (c *Client) conn() (cc *clientConn, fresh bool, err error) {
	if cc, err = c.cached(); cc != nil || err != nil {
		return cc, false, err
	}
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	if cc, err = c.cached(); cc != nil || err != nil {
		return cc, false, err // a concurrent caller dialled while this one waited
	}
	conn, err := c.cfg.Dialer(c.addr)
	if err != nil {
		return nil, false, err
	}
	cc = &clientConn{conn: conn, w: newWire(conn), pending: make(map[uint64]*call)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = conn.Close()
		return nil, false, ErrClosed
	}
	c.cc = cc
	c.readers.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.readers.Done()
		cc.readLoop()
	}()
	return cc, true, nil
}

// Invoke calls object.method with the gob-encoded arg, decoding the reply
// into reply (a pointer, or nil to discard). Transport failures are
// retried per the config; servant errors return as *AppError.
func (c *Client) Invoke(object, method string, arg, reply any) error {
	return c.InvokeMeta(object, method, nil, arg, reply)
}

// InvokeMeta is Invoke with out-of-band call metadata (trace
// propagation). Servants registered with MethodMeta receive it; plain
// methods ignore it.
func (c *Client) InvokeMeta(object, method string, meta map[string]string, arg, reply any) error {
	h := requestHeader{Object: object, Method: method, Meta: meta}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.retries++
			c.mu.Unlock()
			<-c.cfg.Clock.Wake(c.cfg.Clock.Now().Add(c.cfg.RetryDelay))
		}
		retry, err := c.attempt(&h, arg, reply)
		if !retry || errors.Is(err, ErrClosed) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("invoke %s.%s after %d attempts: %w", object, method, c.cfg.Retries+1, lastErr)
}

// attempt performs one round trip under the call timeout. retry reports
// a transport failure, which the caller may try again; otherwise err is
// the call's outcome.
func (c *Client) attempt(h *requestHeader, arg, reply any) (retry bool, err error) {
	// Transport deadlines are kernel wall time: a live connection's I/O
	// budget stays real even under a fake clock.
	wall := timers.WallClock{}
	var deadline time.Time
	var timeout <-chan time.Time
	if c.cfg.CallTimeout > 0 {
		deadline = wall.Now().Add(c.cfg.CallTimeout)
		timeout = wall.Wake(deadline)
	}
	var cc *clientConn
	var cl *call
	for {
		var fresh bool
		if cc, fresh, err = c.conn(); err != nil {
			return true, err
		}
		if cl, err = cc.send(deadline, h, arg, reply); err == nil {
			break
		}
		if errors.Is(err, errEncode) {
			return false, fmt.Errorf("encode %s.%s request: %w", h.Object, h.Method, err)
		}
		if fresh {
			return true, err
		}
		// The cached connection's peer went away while it idled: nothing
		// of the frame was delivered, so this is not an attempt. Send it
		// again on a fresh dial.
	}
	select {
	case out := <-cl.done:
		return out.transport, out.err
	case <-timeout:
		if cc.abandon(h.ID) {
			// Only this call's ID is given up: the connection and its
			// other calls carry on, and a late reply is dropped by ID.
			return true, fmt.Errorf("recv: no reply within %v: %w", c.cfg.CallTimeout, os.ErrDeadlineExceeded)
		}
		out := <-cl.done // the reader is already delivering the reply
		return out.transport, out.err
	}
}

// call is one in-flight invocation awaiting its reply frame.
type call struct {
	reply any          // the caller's reply pointer; nil discards
	done  chan outcome // buffered: the reader never blocks on a caller
}

// outcome is how a call ended; transport marks a connection-level
// failure (retried) as opposed to the servant's verdict.
type outcome struct {
	err       error
	transport bool
}

// clientConn is one dialled connection and its in-flight calls.
type clientConn struct {
	conn net.Conn
	w    *wire

	mu      sync.Mutex
	pending map[uint64]*call
	lastID  uint64
	err     error // set once the connection has failed
}

func (cc *clientConn) failed() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

// send registers a call under a fresh ID (stored into h) and writes its
// request frame. On error nothing stays registered; on a write error
// the connection has been failed.
func (cc *clientConn) send(deadline time.Time, h *requestHeader, arg, reply any) (*call, error) {
	cl := &call{reply: reply, done: make(chan outcome, 1)}
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return nil, cc.err
	}
	cc.lastID++
	h.ID = cc.lastID
	cc.pending[h.ID] = cl
	cc.mu.Unlock()
	err := cc.w.send(deadline, h, arg)
	switch {
	case err == nil:
		return cl, nil
	case errors.Is(err, errEncode):
		cc.abandon(h.ID)
	default:
		err = fmt.Errorf("send: %w", err)
		cc.fail(err)
	}
	return nil, err
}

// abandon gives up a pending ID; false means the reader already claimed
// it and is delivering its reply.
func (cc *clientConn) abandon(id uint64) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	_, ok := cc.pending[id]
	delete(cc.pending, id)
	return ok
}

// fail retires the connection: it is closed and every pending call ends
// with err as a transport failure. Later calls are refused with err.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return
	}
	cc.err = err
	pending := cc.pending
	cc.pending = nil
	cc.mu.Unlock()
	_ = cc.conn.Close()
	for _, cl := range pending {
		cl.done <- outcome{err: err, transport: true}
	}
}

// errReader remembers the transport's read error, which tells a reply
// cut short by the connection from one that does not fit the caller's
// reply type.
type errReader struct {
	r   io.Reader
	err error
}

func (r *errReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if err != nil {
		r.err = err
	}
	return n, err
}

// readLoop routes reply frames to their callers until the connection
// fails. It never writes and never blocks on a caller.
func (cc *clientConn) readLoop() {
	rd := &errReader{r: cc.conn}
	dec := gob.NewDecoder(rd)
	var h replyHeader
	for {
		h = replyHeader{} // gob leaves fields absent from the wire untouched
		if err := dec.Decode(&h); err != nil {
			cc.fail(fmt.Errorf("recv: %w", err))
			return
		}
		cc.mu.Lock()
		cl := cc.pending[h.ID] // nil: abandoned after a timeout, or a duplicated frame's second reply
		delete(cc.pending, h.ID)
		cc.mu.Unlock()
		var out outcome
		if h.Failed {
			out.err = &AppError{Msg: h.AppErr}
		} else {
			var reply any
			if cl != nil {
				reply = cl.reply
			}
			// A nil reply skips the value.
			if err := dec.Decode(reply); err != nil && rd.err != nil {
				out = outcome{err: fmt.Errorf("recv: %w", err), transport: true}
			} else if err != nil {
				out.err = fmt.Errorf("decode reply: %w", err)
			}
		}
		if cl != nil {
			cl.done <- out
		}
		if out.transport {
			cc.fail(out.err)
			return
		}
	}
}

// Call is a typed convenience wrapper over Invoke.
func Call[Req, Resp any](c *Client, object, method string, req Req) (Resp, error) {
	var resp Resp
	err := c.Invoke(object, method, req, &resp)
	return resp, err
}

// CallMeta is a typed convenience wrapper over InvokeMeta.
func CallMeta[Req, Resp any](c *Client, object, method string, meta map[string]string, req Req) (Resp, error) {
	var resp Resp
	err := c.InvokeMeta(object, method, meta, req, &resp)
	return resp, err
}
