package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"mptcpsim"
	"mptcpsim/internal/serve"
)

// serveMain implements `mptcpsim serve`: the campaign engine as an HTTP
// job service. Ctrl-C shuts down gracefully — running campaigns cancel at
// their next scenario boundary (the scenarios each delivered in order stay
// cached),
// event streams close, and in-flight requests drain before exit.
func serveMain(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8377", "listen address")
		jobs     = fs.Int("j", 0, "parallel simulation workers per job (0 = all CPUs)")
		cacheDir = fs.String("cache", "", "content-addressed result cache directory shared by all jobs")
		maxN     = fs.Int("max-n", 0, "largest campaign size a submission may request (0 = 10000)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mptcpsim serve [-addr host:port] [-j W] [-cache dir] [-max-n N]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *jobs < 0 {
		// Every job's Lab would reject it: refuse to start instead.
		fail(fmt.Errorf("serve: negative worker count %d", *jobs))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	s := serve.NewServer(ctx, serve.Config{Workers: *jobs, CacheDir: *cacheDir, MaxN: *maxN})
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "mptcpsim: %s serving on http://%s\n", mptcpsim.Version(), ln.Addr())

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, errLine(err))
		os.Exit(1)
	case <-ctx.Done():
	}
	// Cancel the jobs first: event streams end the moment the base context
	// dies, so draining in-flight requests afterwards cannot stall on a
	// long-lived stream.
	s.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, errLine(err))
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "mptcpsim: server stopped")
	os.Exit(130)
}
