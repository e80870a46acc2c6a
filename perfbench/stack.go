package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"repro/service"
	"repro/service/client"
	"repro/service/coord"
	"repro/service/store"
)

// node is one in-process memtestd: a Manager behind service.NewServer
// on its own loopback listener.
type node struct {
	mgr  *service.Manager
	srv  *http.Server
	done chan struct{}
	url  string
	cli  *client.Client
}

// serve starts an HTTP server for h on a fresh loopback port.
func serve(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return srv, "http://" + ln.Addr().String(), done, nil
}

func startNode(cfg service.Config) (*node, error) {
	m, err := service.NewManager(cfg)
	if err != nil {
		return nil, fmt.Errorf("memtestd: %w", err)
	}
	srv, url, done, err := serve(service.NewServer(m))
	if err != nil {
		m.Close()
		return nil, err
	}
	return &node{mgr: m, srv: srv, done: done, url: url}, nil
}

// close stops the listener, then the manager, and waits for the serve
// loop to end.
func (n *node) close() {
	n.srv.Close()
	n.mgr.Close()
	<-n.done
}

// coordStack is memtest-coord over in-process memtestd workers, each
// with one fleet worker and its own Disk spool directory.
type coordStack struct {
	workers []*node
	byURL   map[string]*node
	co      *coord.Coordinator
	srv     *http.Server
	done    chan struct{}
	url     string
	cli     *client.Client
}

func (c *coordStack) close() {
	if c.srv != nil {
		c.srv.Close()
	}
	if c.co != nil {
		c.co.Close()
	}
	if c.done != nil {
		<-c.done
	}
	for _, w := range c.workers {
		w.close()
	}
}

// stack is every program component one workload's levels drive.
type stack struct {
	spool  store.Store // the spool level's store
	single *node       // the manager and HTTP levels' memtestd
	coord  *coordStack
	dirs   []string
}

// stackConfig says which components to build.
type stackConfig struct {
	scratch string // parent of the temp spool directories
	disk    bool   // Disk spools instead of Mem
	nproc   int
	clients int
	retain  int
	spool   bool
	single  bool
	coord   bool
}

func (s *stack) tempDir(scratch, prefix string) (string, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(scratch, prefix)
	if err != nil {
		return "", err
	}
	s.dirs = append(s.dirs, d)
	return d, nil
}

func (s *stack) newStore(c stackConfig, prefix string) (store.Store, error) {
	if !c.disk {
		return store.NewMem(), nil
	}
	d, err := s.tempDir(c.scratch, prefix)
	if err != nil {
		return nil, err
	}
	return store.NewDisk(d)
}

// buildStack starts the components c asks for. On error everything
// already started is stopped.
func buildStack(c stackConfig) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if c.spool {
		if s.spool, err = s.newStore(c, "spool-"); err != nil {
			return nil, err
		}
	}
	if c.single {
		st, err := s.newStore(c, "memtestd-")
		if err != nil {
			return nil, err
		}
		s.single, err = startNode(service.Config{FleetWorkers: c.nproc, Store: st, RetainJobs: c.retain})
		if err != nil {
			st.Close()
			return nil, err
		}
		s.single.cli = newClient(s.single.url, c.clients)
	}
	if c.coord {
		cs := &coordStack{byURL: map[string]*node{}}
		s.coord = cs
		var urls []string
		for i := 0; i < c.nproc; i++ {
			st, err := s.newStore(c, "worker-")
			if err != nil {
				return nil, err
			}
			w, err := startNode(service.Config{FleetWorkers: 1, Store: st, RetainJobs: c.retain})
			if err != nil {
				st.Close()
				return nil, err
			}
			cs.workers = append(cs.workers, w)
			cs.byURL[w.url] = w
			urls = append(urls, w.url)
		}
		st, err := s.newStore(c, "coord-")
		if err != nil {
			return nil, err
		}
		cs.co, err = coord.New(coord.Config{
			Workers:    urls,
			HTTP:       &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
			Store:      st,
			RetainJobs: c.retain,
			// The closed loop waits for the cached view to show every
			// worker idle before each job, so the cache must refresh
			// well within one job.
			ProbeInterval: probeInterval,
		})
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("memtest-coord: %w", err)
		}
		if cs.srv, cs.url, cs.done, err = serve(service.NewServer(cs.co)); err != nil {
			return nil, err
		}
		cs.cli = newClient(cs.url, c.clients)
	}
	return s, nil
}

// newClient is a service client limited to conns connections.
func newClient(base string, conns int) *client.Client {
	return client.New(base, &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
	}})
}

func (s *stack) close() {
	if s.coord != nil {
		s.coord.close()
	}
	if s.single != nil {
		s.single.close()
	}
	if s.spool != nil {
		s.spool.Close()
	}
	var errs []error
	for _, d := range s.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: remove spool dirs: %v\n", err)
	}
}

// scratchDir is where temp spools live under the work directory.
func scratchDir(workdir string) string { return filepath.Join(workdir, "tmp") }
