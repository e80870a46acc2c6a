package debugsrv

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestServeAnswers drives the handler of the server Serve starts: the
// /metrics mirror renders the registry and the pprof index answers. The
// server's own listener takes a free loopback port and is closed
// unused.
func TestServeAnswers(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("debug_probe_total", "Probe counter.").Inc()
	srv := Serve("127.0.0.1:0", reg, slog.New(slog.NewTextHandler(io.Discard, nil)))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()

	for path, want := range map[string]string{
		"/metrics":      "debug_probe_total 1",
		"/debug/pprof/": "goroutine",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s: %d, body lacks %q:\n%s", path, resp.StatusCode, want, body)
		}
	}
}
