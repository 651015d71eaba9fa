package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/server"
)

// daemon is one spaced instance: server.New behind a real loopback
// listener, so requests pay real HTTP with keep-alive.
type daemon struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

// startDaemon starts a server whose flights search at the run's width.
func (r *run) startDaemon(cfg server.Config) (*daemon, error) {
	cfg.SearchWorkers = r.width
	// A loaded host must not turn a slow cold answer into a 504.
	cfg.DefaultDeadline = 10 * time.Minute
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, drains the server and waits for the
// serve goroutine to exit.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.http.Shutdown(ctx) //nolint:errcheck // best effort; Close below is what drains
	d.srv.Close()
	<-d.done
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, url: url}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// enumerateBody is the POST /v1/enumerate body for a corpus function.
// variant > 0 asks for the same space under another cache key: it sets
// options.max_nodes to a cap far above any space requested here, so
// the enumeration and its canonical hash are unchanged but the request
// misses where the plain one would hit. That is how one server gives
// several cold samples of one function.
func enumerateBody(name string, equiv bool, variant int) []byte {
	bench, fn, _ := strings.Cut(name, "/")
	opts := map[string]any{"equiv": equiv}
	if variant > 0 {
		opts["max_nodes"] = 1_000_000 + variant
	}
	b, _ := json.Marshal(map[string]any{"bench": bench, "func": fn, "options": opts}) //nolint:errcheck // strings, a bool, an int
	return b
}

// answer is the part of the POST /v1/enumerate response the gate reads.
type answer struct {
	Key       string `json:"key"`
	SpaceHash string `json:"space_hash"`
	Nodes     int    `json:"nodes"`
	Attempts  int    `json:"attempted_phases"`
	Cache     string `json:"cache"`
	RequestID string `json:"-"`
}

func (a answer) id() spaceID { return spaceID{Hash: a.SpaceHash, Nodes: a.Nodes, Attempts: a.Attempts} }

// postRaw sends one enumerate request and returns the status, the whole
// body and the latency from send to last body byte.
func (c *client) postRaw(body []byte) (status int, resp []byte, reqID string, lat time.Duration, err error) {
	start := time.Now()
	r, err := c.hc.Post(c.url+"/v1/enumerate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", time.Since(start), err
	}
	resp, err = io.ReadAll(r.Body)
	lat = time.Since(start)
	r.Body.Close()
	return r.StatusCode, resp, r.Header.Get("X-Request-ID"), lat, err
}

// enumerate is postRaw plus decoding; a non-200 is an error.
func (c *client) enumerate(name string, equiv bool, variant int) (answer, time.Duration, error) {
	status, resp, reqID, lat, err := c.postRaw(enumerateBody(name, equiv, variant))
	if err != nil {
		return answer{}, lat, err
	}
	if status != http.StatusOK {
		return answer{}, lat, fmt.Errorf("POST /v1/enumerate %s: status %d: %s", name, status, bytes.TrimSpace(resp))
	}
	var a answer
	if err := json.Unmarshal(resp, &a); err != nil {
		return answer{}, lat, fmt.Errorf("decoding answer for %s: %w", name, err)
	}
	a.RequestID = reqID
	return a, lat, nil
}

// get fetches path and returns the body.
func (c *client) get(path string) ([]byte, time.Duration, error) {
	start := time.Now()
	r, err := c.hc.Get(c.url + path)
	if err != nil {
		return nil, time.Since(start), err
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	lat := time.Since(start)
	if err == nil && r.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, r.StatusCode)
	}
	return b, lat, err
}
