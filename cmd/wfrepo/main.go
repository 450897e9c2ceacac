// Command wfrepo runs the Workflow Repository Service (Fig. 4) as a
// standalone daemon: a versioned, compile-checked script store exported
// over the orb, with state in a group-commit WAL store.
//
// Usage:
//
//	wfrepo -addr 127.0.0.1:7001 -dir ./repo-state [-naming host:port]
//
// When -naming is given the service registers itself with the naming
// service so clients can resolve it by name.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/orb"
	"repro/internal/persist"
	"repro/internal/repository"
	"repro/internal/store"
	"repro/internal/txn"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7001", "listen address")
	dir := flag.String("dir", "wfrepo-state", "state directory (WAL store)")
	naming := flag.String("naming", "", "naming service address to register with (optional)")
	noSync := flag.Bool("nosync", false, "disable fsync on writes (faster, less durable)")
	flag.Parse()

	if err := run(*addr, *dir, *naming, *noSync); err != nil {
		fmt.Fprintln(os.Stderr, "wfrepo:", err)
		os.Exit(1)
	}
}

func run(addr, dir, naming string, noSync bool) error {
	st, closeStore, err := store.Open("wal", dir, !noSync)
	if err != nil {
		return err
	}
	defer closeStore()
	reg := persist.NewRegistry(st, txn.NewManager(st), nil)
	if n, err := reg.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	} else if n > 0 {
		fmt.Printf("recovered %d in-doubt transactions\n", n)
	}
	repo := repository.New(reg)

	server, err := orb.NewServer(addr)
	if err != nil {
		return err
	}
	defer server.Close()
	server.Register(repository.ObjectName, repo.Servant())
	// The daemon also exports a local naming table so a single wfrepo can
	// bootstrap a deployment.
	local := orb.NewNaming()
	local.BindEntry(repository.ObjectName, server.Addr())
	server.Register(orb.NamingObject, local.Servant())

	if naming != "" {
		nc := orb.NewNamingClient(orb.Dial(naming, orb.ClientConfig{}))
		if err := nc.Bind(repository.ObjectName, server.Addr()); err != nil {
			return fmt.Errorf("register with naming service: %w", err)
		}
	}
	fmt.Printf("workflow repository service on %s (state in %s)\n", server.Addr(), dir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}
