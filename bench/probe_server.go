package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// The server and distcl layers are measured from outside: this file
// reads the endpoints spaced already serves, GET /metrics (OpenMetrics
// text) and GET /v1/debug/flights. /v1/stats is not used: serving it
// decodes every cached space the process has not yet served, which
// would move the numbers being read.

// flightRec is the part of a /v1/debug/flights record the probe reads.
type flightRec struct {
	Event       string `json:"event"`
	Cache       string `json:"cache"`
	QueueWaitMS int64  `json:"queue_wait_ms"`
	EnumerateMS int64  `json:"enumerate_ms"`
	SerializeMS int64  `json:"serialize_ms"`
}

// serverScrape is one reading of a running server.
type serverScrape struct {
	// samples sums every sample of a family over its label sets, keyed
	// by the exposition name ("dist_heartbeats_total").
	samples map[string]float64
	flights []flightRec
}

func scrapeServer(c *client) (*serverScrape, error) {
	sc := &serverScrape{}
	var err error
	if sc.flights, err = scrapeFlights(c); err != nil {
		return nil, err
	}
	body, _, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	sc.samples, err = parseOpenMetrics(body)
	return sc, err
}

func scrapeFlights(c *client) ([]flightRec, error) {
	body, _, err := c.get("/v1/debug/flights")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Flights []flightRec `json:"flights"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding /v1/debug/flights: %w", err)
	}
	return doc.Flights, nil
}

// parseOpenMetrics reads sample lines of the form `name{labels} value`
// and sums them per name.
func parseOpenMetrics(body []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("/metrics: malformed line %q", line)
			}
			name, rest = line[:i], strings.TrimSpace(line[j+1:])
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name, rest = line[:i], strings.TrimSpace(line[i+1:])
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("/metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: value of %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

func expoName(registryName string) string {
	return strings.NewReplacer(".", "_", "-", "_").Replace(registryName)
}

// counter, gauge and histSum read a registry instrument by its dotted
// name; an instrument never touched reads 0. All are nil-safe, so a
// workload without a server reports zeros for the server's layer.
func (sc *serverScrape) counter(name string) float64 {
	if sc == nil {
		return 0
	}
	return sc.samples[expoName(name)+"_total"]
}

func (sc *serverScrape) gauge(name string) float64 {
	if sc == nil {
		return 0
	}
	return sc.samples[expoName(name)]
}

func (sc *serverScrape) histSum(name string) float64 {
	if sc == nil {
		return 0
	}
	return sc.samples[expoName(name)+"_sum"]
}

// missSplit sums the recorder's timing splits over the requests that
// ran an enumeration.
func (sc *serverScrape) missSplit() (queue, enumerate, serialize float64) {
	if sc == nil {
		return
	}
	for _, f := range sc.flights {
		if f.Event == "" && f.Cache == "miss" {
			queue += float64(f.QueueWaitMS)
			enumerate += float64(f.EnumerateMS)
			serialize += float64(f.SerializeMS)
		}
	}
	return
}

// handlerP50 sends mem-hit requests straight to the server's handler
// on a recorder, with no listener, connection or client in the way.
// The loopback mem-hit median minus this one is what HTTP transport
// costs a request.
func handlerP50(srv *server.Server, names []string, n int) time.Duration {
	h := srv.Handler()
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		body := enumerateBody(names[i%len(names)], false, 0)
		req := httptest.NewRequest(http.MethodPost, "/v1/enumerate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		lats = append(lats, time.Since(start))
	}
	return summarize(lats).P50
}

// reportServer fills the server layer's metrics from one scrape.
func reportServer(sc *serverScrape, rep *report) {
	queue, enumerate, serialize := sc.missSplit()
	rep.set("server.flight_queue_wait_ms", queue)
	rep.set("server.flight_enumerate_ms", enumerate)
	rep.set("server.flight_serialize_ms", serialize)
	rep.set("server.cache.hit_mem", sc.counter("server.cache.hit_mem"))
	rep.set("server.cache.hit_disk", sc.counter("server.cache.hit_disk"))
	rep.set("server.cache.miss", sc.counter("server.cache.miss"))
	rep.set("server.cpu_wait_ms", sc.histSum("server.cpu.wait_ns")/1e6)
	rep.set("server.disk_bytes", sc.gauge("cache_disk_bytes"))
}
