// Package chaos is a deterministic fault-injecting reverse proxy for
// exercising the fleet coordinator against a misbehaving network and
// misbehaving workers. A Proxy sits between the coordinator and one
// memtestd worker and injects faults on a script fixed by the Config —
// scripted latency (per request and per streamed line, the straggler
// dial), connection drops mid-stream with optionally torn NDJSON
// tails, 5xx bursts, health-probe failure windows (the quarantine
// driver) and a one-shot silent stream stall (the work-stealing
// driver). Everything random derives from Config.Seed, so a chaos run
// replays exactly; the differential tests assert the merged stream
// that comes out the far side is byte-identical to a run with no proxy
// at all.
package chaos

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config scripts one proxy's faults. The zero value injects nothing —
// a plain pass-through proxy.
type Config struct {
	// Target is the worker base URL the proxy forwards to.
	Target string
	// Seed fixes the fault schedule; two proxies with equal Config
	// misbehave identically.
	Seed int64
	// Latency delays every forwarded request.
	Latency time.Duration
	// LatencyPerLine delays each streamed result line — the straggler
	// dial: a worker behind a large per-line latency falls behind the
	// fleet without ever failing.
	LatencyPerLine time.Duration
	// DropEvery severs every Nth results stream after a seeded-random
	// number of lines, mid-body, so the reader sees an unexpected EOF
	// (not a clean short stream). Zero never drops.
	DropEvery int
	// TornTail, with DropEvery, writes a torn partial NDJSON line
	// before severing — the half-written-tail case the spool and
	// resume layers must survive.
	TornTail bool
	// ErrorEvery answers every Nth non-probe request with 503 instead
	// of forwarding (the first request is always clean so submissions
	// get through). Zero never errors.
	ErrorEvery int
	// FailProbesFrom/To fail the Nth..Mth health probes (1-based,
	// inclusive) with 503 — a scripted outage window sized to drive the
	// coordinator's quarantine machinery. Zero disables.
	FailProbesFrom, FailProbesTo int
	// StallAfterLines silently stalls the first results stream after
	// that many lines — the connection stays open, no more bytes ever
	// come — once per proxy. The classic straggler the steal monitor
	// exists for. Zero never stalls.
	StallAfterLines int
}

// Proxy is the fault-injecting reverse proxy; serve it with httptest
// or http.Server and point the coordinator's worker URL at it. Safe
// for concurrent use; the fault schedule is serialized internally.
type Proxy struct {
	cfg    Config
	target *url.URL

	mu       sync.Mutex
	rng      *rand.Rand
	requests int // all requests seen
	probes   int // GET /v1/healthz seen
	results  int // results streams seen
	stalled  bool

	drops       atomic.Int64
	errors      atomic.Int64
	probesFaild atomic.Int64
	stalls      atomic.Int64
}

// New builds a Proxy; the target URL must parse.
func New(cfg Config) (*Proxy, error) {
	u, err := url.Parse(cfg.Target)
	if err != nil {
		return nil, fmt.Errorf("chaos: bad target %q: %v", cfg.Target, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("chaos: target %q needs scheme://host", cfg.Target)
	}
	return &Proxy{cfg: cfg, target: u, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Drops is how many result streams the proxy severed mid-body.
func (p *Proxy) Drops() int64 { return p.drops.Load() }

// Errors is how many requests the proxy answered 503 without
// forwarding (probe-window failures included).
func (p *Proxy) Errors() int64 { return p.errors.Load() }

// FailedProbes is how many health probes the scripted outage window
// failed.
func (p *Proxy) FailedProbes() int64 { return p.probesFaild.Load() }

// Stalls is how many streams the proxy silently stalled (0 or 1).
func (p *Proxy) Stalls() int64 { return p.stalls.Load() }

// plan decides this request's faults under one lock so the schedule is
// deterministic regardless of request interleaving.
type plan struct {
	fail503   bool // answer 503, do not forward
	probeFail bool // this is a probe inside the outage window
	dropAfter int  // sever the stream after this many lines (0 = never)
	stall     bool // this stream stalls after StallAfterLines
}

func (p *Proxy) plan(r *http.Request) plan {
	isProbe := r.Method == http.MethodGet && r.URL.Path == "/v1/healthz"
	isResults := r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/results")
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	var pl plan
	if isProbe {
		p.probes++
		if p.cfg.FailProbesFrom > 0 && p.probes >= p.cfg.FailProbesFrom && p.probes <= p.cfg.FailProbesTo {
			pl.fail503, pl.probeFail = true, true
		}
		return pl
	}
	if p.cfg.ErrorEvery > 0 && p.requests > 1 && p.requests%p.cfg.ErrorEvery == 0 {
		pl.fail503 = true
		return pl
	}
	if isResults {
		p.results++
		if p.cfg.StallAfterLines > 0 && !p.stalled {
			p.stalled, pl.stall = true, true
		}
		if p.cfg.DropEvery > 0 && p.results%p.cfg.DropEvery == 0 {
			pl.dropAfter = 1 + p.rng.Intn(8)
		}
	}
	return pl
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	pl := p.plan(r)
	if pl.fail503 {
		p.errors.Add(1)
		if pl.probeFail {
			p.probesFaild.Add(1)
		}
		http.Error(w, "chaos: scripted unavailability", http.StatusServiceUnavailable)
		return
	}
	if p.cfg.Latency > 0 {
		select {
		case <-time.After(p.cfg.Latency):
		case <-r.Context().Done():
			return
		}
	}

	out := *p.target
	out.Path = r.URL.Path
	out.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), r.Method, out.String(), r.Body)
	if err != nil {
		http.Error(w, "chaos: "+err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		http.Error(w, "chaos: upstream: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)

	streaming := strings.Contains(resp.Header.Get("Content-Type"), "ndjson")
	if !streaming {
		io.Copy(w, resp.Body) //nolint:errcheck // pass-through; the client sees whatever made it
		return
	}
	p.pump(w, r, resp.Body, pl)
}

// pump relays an NDJSON stream line by line, applying the per-line
// latency and this stream's scripted drop or stall. Severing flushes
// what was written and then aborts the connection (http.ErrAbortHandler),
// so the reader observes a mid-body unexpected EOF — retryable — never
// a clean-looking short stream.
func (p *Proxy) pump(w http.ResponseWriter, r *http.Request, body io.Reader, pl plan) {
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush() // commit the header before any fault can hit
	br := bufio.NewReader(body)
	lines := 0
	for {
		// ReadBytes has no line-length cap and returns the unterminated
		// tail alongside the error at EOF.
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if p.cfg.LatencyPerLine > 0 {
				select {
				case <-time.After(p.cfg.LatencyPerLine):
				case <-r.Context().Done():
					return
				}
			}
			lines++
			stall := pl.stall && lines >= p.cfg.StallAfterLines
			if stall {
				// Count the stall before its line reaches the reader, so a
				// reader that has seen the line also sees the count.
				p.stalls.Add(1)
			}
			if _, werr := w.Write(line); werr != nil {
				return
			}
			flush()
			if stall {
				<-r.Context().Done() // hold the connection open, silent
				return
			}
			if pl.dropAfter > 0 && lines >= pl.dropAfter {
				p.drops.Add(1)
				if p.cfg.TornTail {
					if torn, _ := br.ReadBytes('\n'); len(torn) > 1 {
						w.Write(torn[:len(torn)/2]) //nolint:errcheck // the tear is the point
						flush()
					}
				}
				panic(http.ErrAbortHandler) // sever mid-body: unexpected EOF downstream
			}
		}
		if err != nil {
			return
		}
	}
}
