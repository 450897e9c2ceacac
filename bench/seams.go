package main

import (
	"net"
	"net/url"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/orb"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/store"
)

// This file wraps the layers' public seams from outside. Nothing in the
// program under test knows it is being observed.

// instOf recovers the instance a store key belongs to: run states and
// metas live under "inst/<id>/", and a logged intention carries its
// target key query-escaped in its last segment.
func instOf(id store.ID) string {
	s := string(id)
	if rest, ok := strings.CutPrefix(s, "txlog/"); ok {
		if i := strings.LastIndexByte(rest, '/'); i >= 0 {
			if obj, err := url.QueryUnescape(rest[i+1:]); err == nil {
				s = obj
			}
		}
	}
	if rest, ok := strings.CutPrefix(s, "inst/"); ok {
		inst, _, _ := strings.Cut(rest, "/")
		return inst
	}
	return ""
}

func instOfBatch(ops []store.BatchOp) string {
	for _, op := range ops {
		if inst := instOf(op.ID); inst != "" {
			return inst
		}
	}
	return ""
}

// storeSeam observes a store.Store. The same underlying store is
// wrapped twice — once as the state store handed to persist.Registry,
// once as the log store handed to txn.Manager — so state traffic and
// intention-log traffic are counted apart.
type storeSeam struct {
	inner store.Store
	tr    *tracer
	log   bool
	// The span kinds of this seam's writes, reads and lists.
	write, read, list kind
}

// observe counts one applied batch (a single Write or Delete is a
// batch of one).
func (s *storeSeam) observe(ops []store.BatchOp, start time.Time) {
	tr := s.tr
	for _, op := range ops {
		n := int64(len(op.ID) + len(op.Data))
		switch {
		case !s.log:
			tr.add(cStoreOps, 1)
			tr.add(cStoreBytes, n)
		case op.Delete:
			tr.add(cLogDeletes, 1)
		case strings.HasPrefix(string(op.ID), "txdecision/"):
			tr.add(cLogCommits, 1)
			tr.add(cLogBytes, n)
		default:
			tr.add(cLogWrites, 1)
			tr.add(cLogBytes, n)
		}
	}
	if !s.log {
		tr.add(cStoreBatches, 1)
		tr.recordBatch(ops)
	}
	tr.span(instOfBatch(ops), s.write, "", start)
}

func (s *storeSeam) Read(id store.ID) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.Read(id)
	if !s.log {
		s.tr.add(cStoreReads, 1)
	}
	s.tr.span(instOf(id), s.read, "", start)
	return data, err
}

func (s *storeSeam) Write(id store.ID, data []byte) error {
	start := time.Now()
	err := s.inner.Write(id, data)
	s.observe([]store.BatchOp{{ID: id, Data: data}}, start)
	return err
}

func (s *storeSeam) Delete(id store.ID) error {
	start := time.Now()
	err := s.inner.Delete(id)
	s.observe([]store.BatchOp{{ID: id, Delete: true}}, start)
	return err
}

func (s *storeSeam) List(prefix store.ID) ([]store.ID, error) {
	start := time.Now()
	ids, err := s.inner.List(prefix)
	s.tr.span(instOf(prefix), s.list, "", start)
	return ids, err
}

func (s *storeSeam) applyBatch(ops []store.BatchOp) error {
	start := time.Now()
	err := s.inner.(store.Batcher).ApplyBatch(ops)
	s.observe(ops, start)
	return err
}

func (s *storeSeam) applyBatchLazy(ops []store.BatchOp) error {
	start := time.Now()
	err := s.inner.(store.LazyBatcher).ApplyBatchLazy(ops)
	s.observe(ops, start)
	return err
}

// The optional capabilities are forwarded exactly when the wrapped
// store has them: a wrapper that hid ApplyBatch would silently turn one
// fsync per drain into one per record, and one that invented it would
// hide the per-record cost of a store without it.
type (
	batchSeam     struct{ *storeSeam }
	lazySeam      struct{ *storeSeam }
	batchLazySeam struct{ *storeSeam }
)

func (s batchSeam) ApplyBatch(ops []store.BatchOp) error         { return s.applyBatch(ops) }
func (s lazySeam) ApplyBatchLazy(ops []store.BatchOp) error      { return s.applyBatchLazy(ops) }
func (s batchLazySeam) ApplyBatch(ops []store.BatchOp) error     { return s.applyBatch(ops) }
func (s batchLazySeam) ApplyBatchLazy(ops []store.BatchOp) error { return s.applyBatchLazy(ops) }

// wrapStore returns inner observed by tr as the state store (log false)
// or the intention-log store (log true).
func wrapStore(inner store.Store, tr *tracer, log bool) store.Store {
	s := &storeSeam{inner: inner, tr: tr, log: log, write: kStoreWrite, read: kStoreRead, list: kStoreList}
	if log {
		s.write, s.read, s.list = kLogWrite, kLogRead, kLogRead
	}
	_, batch := inner.(store.Batcher)
	_, lazy := inner.(store.LazyBatcher)
	switch {
	case batch && lazy:
		return batchLazySeam{s}
	case batch:
		return batchSeam{s}
	case lazy:
		return lazySeam{s}
	default:
		return s
	}
}

// wrapBinding times a task implementation: k is kBinding for a local
// binding and kExecutor for one hosted by a remote executor.
func wrapBinding(tr *tracer, k kind, f registry.Func) registry.Func {
	return func(ctx registry.Context) (registry.Result, error) {
		start := time.Now()
		res, err := f(ctx)
		tr.span(ctx.Instance(), k, ctx.TaskPath(), start)
		return res, err
	}
}

// wrapInvoker times every remote dispatch the engine makes.
func wrapInvoker(tr *tracer, inv engine.RemoteInvoker) engine.RemoteInvoker {
	return func(req engine.RemoteRequest) (registry.Result, error) {
		start := time.Now()
		res, err := inv(req)
		tr.span(req.Instance, kInvoke, req.TaskPath, start)
		return res, err
	}
}

// eventTap counts events and task starts, per instance and in total.
func eventTap(tr *tracer) func(engine.Event) {
	return func(ev engine.Event) {
		tr.add(cEvents, 1)
		if ev.Kind != engine.EventTaskStarted {
			return
		}
		tr.add(cStarts, 1)
		if it, ok := tr.insts.Load(ev.Instance); ok {
			it.(*instTrace).starts.Add(1)
		}
	}
}

// compiler returns sema.CompileSource, timed when tr is set. Recovery
// recompiles land in the current cycle's trace; set-up compiles belong
// to no trace and count in the totals only.
func compiler(tr *tracer) engine.SchemaCompiler {
	if tr == nil {
		return sema.CompileSource
	}
	return func(name string, src []byte) (*core.Schema, error) {
		start := time.Now()
		schema, err := sema.CompileSource(name, src)
		tr.span("", kCompile, name, start)
		return schema, err
	}
}

// countingConn counts the writes and bytes crossing one connection.
type countingConn struct {
	net.Conn
	tr     *tracer
	client bool
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tr.add(cConnWrites, 1)
	if c.client {
		c.tr.add(cWireOut, int64(n))
	}
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.client {
		c.tr.add(cWireIn, int64(n))
	}
	return n, err
}

// countingDialer observes the client side of every orb connection:
// dials, writes, bytes out and bytes in.
func countingDialer(tr *tracer) orb.Dialer {
	return func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		tr.add(cDials, 1)
		return countingConn{Conn: conn, tr: tr, client: true}, nil
	}
}

// countingListener observes the server side: its writes complete the
// per-call write count (bytes are already counted at the client).
type countingListener struct {
	net.Listener
	tr *tracer
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, tr: l.tr}, nil
}
