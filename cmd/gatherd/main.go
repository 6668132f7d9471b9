// Command gatherd is the network sweep coordinator: it hands out cell-group
// claims with TTL leases, accepts streamed result records, and serves the
// merged record history back to workers for resume and adaptive
// re-evaluation — the same protocol the shared-filesystem sweep directory
// speaks, lifted onto HTTP so a fleet no longer needs a shared mount.
//
// Workers connect with gatherbench -coordinator http://host:9340; each
// experiment gets its own named store on the coordinator. The record log is
// the only ground truth (workers recompute adaptive state from it): leases
// expire by design, so killing and restarting gatherd mid-sweep costs at most
// duplicated (bit-identical) work — workers retry with backoff and re-append.
// With -dir, record logs persist across restarts in the same
// <dir>/<store>/results.jsonl layout a filesystem sweep uses, so a later FS
// resume (or gatherbench livelocks) reads them directly.
//
// The listener also serves the repo's standard observability surface:
// /metrics (coordination counters and gauges), /progress, /debug/pprof/, and
// /v1/status for a JSON inventory of stores, log sizes and live leases.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/fatgather/fatgather/internal/obs"
	"github.com/fatgather/fatgather/internal/sweep/netbackend"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "gatherd:", err)
		os.Exit(1)
	}
}

// run parses flags, builds the coordinator and serves until a SIGINT/SIGTERM
// (or, in tests, until stop closes). The listening line on out is the
// machine-readable readiness signal CI and tests wait for.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("gatherd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":9340", "listen address (host:port; :0 picks a free port)")
	dir := fs.String("dir", "", "persist record logs under this directory (<dir>/<store>/results.jsonl); empty keeps them in memory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	srv, err := netbackend.NewServer(*dir)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	// One listener, two surfaces: the /v1 coordination API at the root, the
	// standard observability endpoints alongside it.
	obsHandler := obs.Handler()
	root := http.NewServeMux()
	root.Handle("/metrics", obsHandler)
	root.Handle("/progress", obsHandler)
	root.Handle("/debug/pprof/", obsHandler)
	root.Handle("/", srv.Handler())

	hs := &http.Server{Handler: root}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	fmt.Fprintf(out, "gatherd listening on http://%s\n", ln.Addr())
	obs.Infof("gatherd", "listening addr=%s dir=%q", ln.Addr(), *dir)

	if stop == nil {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		select {
		case err := <-errc:
			return err
		case <-sigc:
		}
	} else {
		select {
		case err := <-errc:
			return err
		case <-stop:
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		_ = hs.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
