// Command atsimd serves simulation sessions over HTTP: create a
// session, step it quantum by quantum, stream its events, fetch its
// result. The server survives session panics (crash isolation), sheds
// load with 429 + Retry-After (admission control), evicts cold
// sessions to disk snapshots and resumes them transparently, and
// drains on SIGTERM — checkpointing every live session so a restart
// over the same data directory continues all of them bit-exactly.
//
//	atsimd -addr 127.0.0.1:8080 -data ./atsimd-data
//
// See docs/SERVICE.md for the API and operational semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/fsatomic"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port; the bound address is announced on stdout)")
		dataDir      = flag.String("data", "atsimd-data", "data directory for session manifests and snapshots")
		maxSessions  = flag.Int("max-sessions", 16384, "max resident sessions (any state)")
		maxLive      = flag.Int("max-live", 64, "max sessions with a resident engine")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "max sessions executing simulation concurrently")
		tenantQuota  = flag.Int("tenant-quota", 0, "max resident sessions per tenant (0 = unlimited)")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request deadline")
		stallTimeout = flag.Duration("stall-timeout", 30*time.Second, "per-session engine stall watchdog")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget before engines are aborted")
		chaos        = flag.Bool("chaos", false, "admit sessions with panic_at_boundary fault injection")
		sessionObs   = flag.String("session-obs", "trace", "default engine observability level for sessions that do not pick one (off, metrics, trace)")
		obsRing      = flag.Int("obs-ring", 4096, "default per-session engine event-ring capacity (events)")
		accessLog    = flag.Bool("access-log", true, "write one structured JSON line per request to stderr")
		serverTrace  = flag.String("server-trace", "", "write the wall-clock request trace (Chrome format) to this path on drain")
		peerAllow    = flag.String("peer-allow", "", "comma-separated URL prefixes allowed as migration peers (\"*\" = any; empty disables migration)")
		maxMig       = flag.Int("max-migrations", 4, "max concurrent migrations per direction")
		migTimeout   = flag.Duration("migrate-timeout", 20*time.Second, "per-phase migration deadline (also the per-attempt transfer bound)")
		advertise    = flag.String("advertise", "", "this instance's own base URL, recorded as migrated_from provenance on sessions it hands off")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "atsimd: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	cfg := server.Config{
		DataDir:        *dataDir,
		MaxSessions:    *maxSessions,
		MaxLive:        *maxLive,
		Workers:        *workers,
		TenantQuota:    *tenantQuota,
		RequestTimeout: *reqTimeout,
		StallTimeout:   *stallTimeout,
		DrainTimeout:   *drainTimeout,
		EnableChaos:    *chaos,
		SessionObs:     *sessionObs,
		ObsRingSize:    *obsRing,
		MaxMigrations:  *maxMig,
		MigrateTimeout: *migTimeout,
		AdvertiseURL:   *advertise,
	}
	if *peerAllow != "" {
		for _, p := range strings.Split(*peerAllow, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.PeerAllow = append(cfg.PeerAllow, p)
			}
		}
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atsimd: %v\n", err)
		os.Exit(1)
	}
	restored := len(s.List())
	if restored > 0 {
		fmt.Printf("atsimd: restored %d sessions from %s\n", restored, *dataDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	err = s.ListenAndServe(ctx, *addr, func(bound string) {
		// The announce line is a stable scripting interface (soak.sh
		// parses it to find an ephemeral port); keep its shape.
		fmt.Printf("atsimd: listening on %s\n", bound)
	})
	if *serverTrace != "" {
		// Post-drain: the span ring now holds the run's final spans.
		if werr := fsatomic.WriteFile(*serverTrace, s.WriteServerTrace); werr != nil {
			fmt.Fprintf(os.Stderr, "atsimd: writing server trace: %v\n", werr)
		} else {
			fmt.Printf("atsimd: server trace written to %s\n", *serverTrace)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "atsimd: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("atsimd: drained cleanly")
}
