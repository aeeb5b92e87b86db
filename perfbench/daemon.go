package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"injectable/internal/obs"
	"injectable/internal/serve"
)

// daemon is one in-process injectabled daemon on loopback, configured as
// `injectabled serve` deploys it: its own obs.Hub, a plain http.Server.
type daemon struct {
	srv  *serve.Server
	hub  *obs.Hub
	http *http.Server
	url  string
	done chan error
}

// startDaemon listens on an ephemeral loopback port and serves. It
// returns once the listener is bound, so requests can follow at once; no
// readiness polling is involved.
func startDaemon(cfg serve.Config) (*daemon, error) {
	cfg.Hub = obs.NewHub()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.NewServer(cfg), hub: cfg.Hub, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// close stops serving, waits for the accept loop to return, then cancels
// and waits out the daemon's executors.
func (d *daemon) close() {
	d.http.Close()
	<-d.done
	d.srv.Close()
}

// counter reads one of the daemon's hub counters.
func (d *daemon) counter(name string) int64 { return d.hub.Reg().Counter(name).Value() }

// newTransport returns a transport holding at most one keep-alive
// connection per daemon.
func newTransport() *http.Transport {
	return &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}

// exchange is one timed HTTP exchange, from the request being sent to the
// last byte of the response being read.
type exchange struct {
	host    string
	status  int
	cache   string
	latency time.Duration
}

// timingTransport times every exchange from outside the program: it
// wraps the response body and stamps the end when the reader hits EOF.
type timingTransport struct {
	base *http.Transport
	mu   sync.Mutex
	log  []exchange
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	ex := exchange{host: req.URL.Host, status: resp.StatusCode, cache: resp.Header.Get("X-Cache")}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		ex.latency = time.Since(start)
		t.mu.Lock()
		t.log = append(t.log, ex)
		t.mu.Unlock()
	}}
	return resp, nil
}

// drain returns and forgets the exchanges recorded so far.
func (t *timingTransport) drain() []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.log
	t.log = nil
	return out
}

// timedBody calls done once: at EOF, or at Close if the reader stopped
// early.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if errors.Is(err, io.EOF) {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}
