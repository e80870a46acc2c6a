// Package smokekit holds the helpers the real-process smoke binaries
// (scripts/resumesmoke, scripts/shardsmoke, scripts/chaossmoke) share:
// the in-process reference stream, raw stream and /metrics readers,
// and daemon start-up plumbing.
package smokekit

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/memtest"
	"repro/service"
)

// ReferenceLines runs the request's session in-process and returns the
// NDJSON lines a single crash-free node would stream.
func ReferenceLines(req service.JobRequest) ([]string, error) {
	s, err := memtest.New(req.Plan,
		memtest.WithSeed(req.Seed), memtest.WithDRF(),
		memtest.WithFleetDelivery(memtest.Ordered))
	if err != nil {
		return nil, err
	}
	var lines []string
	for dr, err := range s.RunFleet(context.Background(), req.Devices) {
		if err != nil {
			return nil, err
		}
		data, err := json.Marshal(dr)
		if err != nil {
			return nil, err
		}
		lines = append(lines, string(data))
	}
	return lines, nil
}

// RawLines reads a whole NDJSON stream and returns its non-empty lines.
func RawLines(url string) ([]string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	return lines, sc.Err()
}

// ScrapeMetric fetches base+"/metrics" and sums every series of one
// family (all label sets), erroring when the family is absent.
func ScrapeMetric(base, name string) (float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	sum, found := 0.0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("bad sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("metric %s absent from %s/metrics", name, base)
	}
	return sum, nil
}

// FreePort grabs an ephemeral port and releases it for a daemon.
func FreePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// WaitHealthy polls base+"/v1/healthz" until the daemon answers.
func WaitHealthy(base string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v", base, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
