// Package locksafe is the golden package for the locksafe analyzer:
// blocking operations under a held sync.Mutex/RWMutex are violations,
// as is a Lock with no same-function Unlock; unlock-then-block and
// deliberately-suppressed sites are clean.
package locksafe

import (
	"os"
	"sync"

	"lintdata/orb"
	"lintdata/persist"
	"lintdata/txn"
)

type guarded struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	ch  chan int
	cl  *orb.Client
	f   *os.File
	wg  sync.WaitGroup
	val int
}

func (g *guarded) sendWhileHeld() {
	g.mu.Lock()
	g.ch <- 1 // want `channel send while g\.mu is held`
	g.mu.Unlock()
}

func (g *guarded) receiveWhileHeld() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return <-g.ch // want `channel receive while g\.mu is held`
}

func (g *guarded) selectWhileHeld(stop chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select { // want `select without default while g\.mu is held`
	case <-stop:
	case g.ch <- 1:
	}
}

func (g *guarded) remoteWhileHeld() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cl.Invoke("o", "m", nil, nil) // want `orb remote call \(Invoke\) while g\.mu is held`
}

func (g *guarded) dialWhileHeld() error {
	g.rw.RLock()
	defer g.rw.RUnlock()
	return orb.Call("addr", "o", "m", nil, nil) // want `orb remote call \(Call\) while g\.rw is held`
}

func (g *guarded) fsyncWhileHeld() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.f.Sync() // want `fsync \(os\.File\.Sync\) while g\.mu is held`
}

func (g *guarded) waitWhileHeld() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.wg.Wait() // want `sync\.WaitGroup\.Wait while g\.mu is held`
}

func (g *guarded) batchCommitWhileHeld(b *persist.Batch) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return b.Commit() // want `store commit \(persist\.Batch\.Commit\) while g\.mu is held`
}

func (g *guarded) txnCommitWhileHeld(tx *txn.Txn) error {
	g.rw.Lock()
	defer g.rw.Unlock()
	return tx.Commit() // want `transaction commit \(txn\.Txn\.Commit\) while g\.rw is held`
}

func (g *guarded) leakyLock() {
	g.mu.Lock() // want `g\.mu locked with no Unlock in this function`
	g.val++
}

func (g *guarded) leakyRLock() int {
	g.rw.RLock() // want `g\.rw locked with no RUnlock in this function`
	return g.val
}

func (g *guarded) suppressedSend() {
	ch := make(chan int, 1)
	g.mu.Lock()
	defer g.mu.Unlock()
	ch <- g.val //wflint:allow locksafe golden test: fresh 1-buffered channel cannot block
}

// unlockThenBlock is clean: the send happens after the critical section.
func (g *guarded) unlockThenBlock() {
	g.mu.Lock()
	v := g.val
	g.mu.Unlock()
	g.ch <- v
}

// reserveThenCommit is clean: the reservation is made under the lock,
// the commit after it is released, and the lock is taken again only to
// publish the result.
func (g *guarded) reserveThenCommit(b *persist.Batch) error {
	g.mu.Lock()
	g.val++
	g.mu.Unlock()
	err := b.Commit()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.val--
	return err
}

// selectWithDefault is clean: with a default arm the select (comm cases
// included) cannot block.
func (g *guarded) selectWithDefault() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case g.ch <- g.val:
	default:
	}
}

// deferredClosureUnlock is clean for the pairing check: an unlock inside
// a deferred closure still releases in this function.
func (g *guarded) deferredClosureUnlock() {
	g.mu.Lock()
	defer func() { g.mu.Unlock() }()
	g.val++
}
