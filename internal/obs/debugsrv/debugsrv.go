// Package debugsrv is the opt-in -debug-addr listener of memtestd and
// memtest-coord: net/http/pprof plus a /metrics mirror of an
// obs.Registry on one loopback port. It is a package of its own because
// importing net/http/pprof registers handlers on http.DefaultServeMux
// and allocates at init; only the daemon mains import it, not every
// library that records metrics.
package debugsrv

import (
	"errors"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// Serve starts the debug listener on addr in the background and
// returns its server, for the caller to Close on shutdown. A listener
// failure is logged, not fatal: the debug port is an aid, not the
// service.
func Serve(addr string, reg *obs.Registry, log *slog.Logger) *http.Server {
	srv := &http.Server{Addr: addr, Handler: mux(reg), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("debug listener failed", "error", err)
		}
	}()
	log.Info("debug listener on", "addr", addr)
	return srv
}

// mux mounts net/http/pprof (which only registers on
// http.DefaultServeMux, served by nothing here) explicitly on a private
// mux, plus the /metrics mirror.
func mux(reg *obs.Registry) *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m.Handle("/metrics", reg.Handler())
	return m
}
