// Command cosmos-node runs one Pub/Sub broker node over TCP — the same
// routing code the embedded middleware uses, deployed as a standalone
// service. Configuration layers environment over config file over flags
// (internal/nodeconfig); logs are structured key=value lines on stderr
// (log/slog, see newLogger); an optional ops HTTP listener serves /healthz,
// /metrics (Prometheus text format) and /debug/overlay.dot; SIGTERM drains
// the node's routing state off the overlay before closing (see OPS.md).
//
// Example (three shells):
//
//	cosmos-node -id 0 -listen :7000 -peers 1=localhost:7001 \
//	    -advertise Station1 -publish Station1 -ops-listen :8080
//	cosmos-node -id 1 -listen :7001 -peers 0=localhost:7000,2=localhost:7002
//	cosmos-node -id 2 -listen :7002 -peers 1=localhost:7001 \
//	    -subscribe 'SELECT * FROM Station1 WHERE snowHeight > 40'
//
// Node 0 publishes synthetic snow readings once a second; node 2 receives
// only those exceeding the filter, with node 1 forwarding one copy per
// link and filtering as early as its routing tables allow. deploy/compose
// runs the same topology as three containers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/nodeconfig"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "cosmos-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cfg, err := nodeconfig.Load(args, os.LookupEnv, os.Stderr)
	if err != nil {
		return err
	}
	level, err := nodeconfig.ParseLogLevel(cfg.LogLevel)
	if err != nil {
		return err // unreachable: Validate already vetted the name
	}
	log := newLogger(os.Stderr, level).With("node", cfg.NodeID)

	svc, err := newService(cfg, log)
	if err != nil {
		return err
	}
	if err := svc.Start(); err != nil {
		svc.Close()
		return err
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sig := <-stop
	log.Info("signal received, draining", "signal", sig.String())
	svc.Shutdown()
	return nil
}

// newLogger returns the node's logger: one logfmt line per record on w,
// `ts=2026-08-07T14:03:22.101Z level=info msg=… k=v`, gated at level (OPS.md
// "Logging"). slog's text handler serializes writes, so lines from
// concurrent goroutines never interleave.
func newLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) > 0 {
				return a // the built-in attributes are never grouped
			}
			switch a.Key {
			case slog.TimeKey:
				if a.Value.Kind() == slog.KindTime {
					return slog.String("ts", a.Value.Time().UTC().Format("2006-01-02T15:04:05.000Z"))
				}
			case slog.LevelKey:
				if l, ok := a.Value.Any().(slog.Level); ok {
					return slog.String(slog.LevelKey, strings.ToLower(l.String()))
				}
			}
			return a
		},
	}))
}
