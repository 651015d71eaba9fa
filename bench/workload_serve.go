package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/search"
	"repro/internal/server"
)

// pass is one closed-loop client's POSTs for names, in order.
type pass struct {
	route   string // label of the report's per-function rows; "" marks an untimed pass and keeps it out of them
	names   []string
	equiv   bool
	small   bool              // scale the whole pass by one reference walk, not each request by its own
	variant int               // see enumerateBody
	tier    string            // the cache tier every answer must come from
	keyOf   map[string]string // when non-nil, receives each answer's cache key under its name
}

// servePass sends a pass and gates every answer: status 200, the cache
// tier this phase of the workload must be answered from, and the
// manifest's hash and counts. It returns the latency per name.
func (r *run) servePass(parent *span, c *client, p pass) latencyBy {
	lats := make(latencyBy, len(p.names))
	scale := 1.0
	for i, name := range p.names {
		if p.route != "" && (i == 0 || !p.small) {
			scale = r.hostScale()
		}
		sp := r.tr.begin(parent, "server", "POST /v1/enumerate:"+name, "")
		a, lat, err := c.enumerate(name, p.equiv, p.variant)
		if sp != nil {
			sp.Request = a.RequestID
		}
		sp.end()
		if err == nil && a.Cache != p.tier {
			err = fmt.Errorf("%s (%s): answered from cache tier %q, want %q", name, tierName(p.equiv), a.Cache, p.tier)
		}
		if err == nil {
			err = r.man.check(name, p.equiv, a.id())
		}
		r.op(err)
		lats[name] = sample{lat, scale}
		if p.keyOf != nil {
			p.keyOf[name] = a.Key
		}
		if p.route != "" {
			r.rowf(p.route, name, p.equiv, lats[name], a.Attempts)
		}
	}
	return lats
}

// threeSets runs the default-tier set, the equiv set and the small set
// (smallPasses times, each under its own cache key) through one client,
// all expected from the same cache tier, and fills the uniform part of
// the round's stats. The returned map gives the cache key of every
// default-tier name requested without a variant.
func (r *run) threeSets(parent *span, c *client, route, tier string, rs *roundStats) map[string]string {
	keyOf := make(map[string]string)
	var before, after runtime.MemStats
	settle()
	runtime.ReadMemStats(&before)
	rs.def = r.servePass(parent, c, pass{route: route, names: shuffled(r.rng, r.defaultSet()), tier: tier, keyOf: keyOf})
	runtime.ReadMemStats(&after)
	rs.defAlloc = after.TotalAlloc - before.TotalAlloc
	settle()
	rs.equiv = r.servePass(parent, c, pass{route: route, names: shuffled(r.rng, r.equivSet()), equiv: true, tier: tier})
	settle()
	for v := 0; v < r.smallPasses(); v++ {
		p := pass{route: route, names: shuffled(r.rng, r.small), small: true, variant: v, tier: tier}
		if v == 0 {
			p.keyOf = keyOf
		}
		rs.small = append(rs.small, r.servePass(parent, c, p))
	}
	return keyOf
}

// serveColdWorkload is the full miss path: engine + per-level
// checkpoint + serialize/gzip + disk put + HTTP, on a fresh cache
// directory and a fresh server every round. The default-tier set is
// the one enumerate runs, so the ratio of the two attempts_per_s is
// the server's cold overhead. This is the cache's write side.
type serveColdWorkload struct {
	scrape *serverScrape // traced runs: the round's server, scraped before it stops
}

// setup compiles the corpus and sends the small set through a server
// it then throws away: what a round pays per server, and the first
// requests' lazy initialisation, land here instead of in a timed
// request.
func (*serveColdWorkload) setup(r *run, parent *span) error {
	if err := r.prepare(parent); err != nil {
		return err
	}
	dir, err := r.tempDir("cold-setup")
	if err != nil {
		return err
	}
	d, err := r.startDaemon(server.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.url)
	defer c.close()
	return r.warmUp(parent, c)
}

// warmUp sends the small set once, untimed but gated.
func (r *run) warmUp(parent *span, c *client) error {
	failed := r.failed
	r.servePass(parent, c, pass{names: r.small, tier: "miss"})
	if r.failed > failed {
		return fmt.Errorf("warm-up: %s", r.failures[len(r.failures)-1])
	}
	return nil
}

func (w *serveColdWorkload) round(r *run, parent *span) (roundStats, error) {
	var rs roundStats
	dir, err := r.tempDir("cold")
	if err != nil {
		return rs, err
	}
	d, err := r.startDaemon(server.Config{Dir: dir})
	if err != nil {
		return rs, err
	}
	defer d.stop()
	c := newClient(d.url)
	defer c.close()
	r.threeSets(parent, c, "cold", "miss", &rs)
	if r.cfg.trace {
		w.scrape, err = scrapeServer(c)
	}
	return rs, err
}

// serveWarmWorkload is the cache's read side: disk load, decode and
// re-hash, the LRU, and HTTP. Set-up fills a cache directory through
// the cold path; every round starts a new server on it, takes the first
// (disk-hit) answer per key, then the mem-hit loop, then downloads.
// The engine does no work here, so an engine change must not move it,
// and a cold-path change that bloats stored bytes shows.
type serveWarmWorkload struct {
	dir      string
	hitNames []string // default-tier names the mem-hit loop and downloads draw from
	// stored is the SHA-256 of each name's downloaded file, kept across
	// rounds: the file is decoded and gated the first time it is seen
	// and byte-compared ever after.
	stored map[string][sha256.Size]byte
	// Traced runs read the round's server before it stops.
	scrape  *serverScrape
	handler time.Duration // mem-hit median through the handler alone
}

func (w *serveWarmWorkload) setup(r *run, parent *span) error {
	if err := r.prepare(parent); err != nil {
		return err
	}
	dir, err := r.tempDir("warm")
	if err != nil {
		return err
	}
	w.dir = dir
	w.hitNames = append(append([]string(nil), r.defaultSet()...), r.small...)
	w.stored = make(map[string][sha256.Size]byte, len(w.hitNames))
	sp := r.tr.begin(parent, "server", "populate", "")
	defer sp.end()
	d, err := r.startDaemon(server.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.url)
	defer c.close()
	var rs roundStats
	failed := r.failed
	r.threeSets(sp, c, "", "miss", &rs)
	if r.failed > failed {
		return fmt.Errorf("populating the cache: %s", r.failures[len(r.failures)-1])
	}
	return nil
}

func (w *serveWarmWorkload) round(r *run, parent *span) (roundStats, error) {
	rs := roundStats{warm: &warmStats{}}
	// The LRU holds every key a round reads (the default is 64 and the
	// small set's variants alone are more), so the mem-hit loop finds
	// every space the disk-hit pass loaded.
	d, err := r.startDaemon(server.Config{Dir: w.dir, MemEntries: 2 * r.requestsPerRound()})
	if err != nil {
		return rs, err
	}
	defer d.stop()
	c := newClient(d.url)
	defer c.close()

	keyOf := r.threeSets(parent, c, "disk-hit", "disk", &rs)
	rs.warm.diskHitSet = rs.def.sum() + rs.small[0].sum()
	r.memHitLoop(parent, d.url, w.hitNames, rs.warm)
	r.downloads(parent, c, w.hitNames, keyOf, w.stored, rs.warm)
	if r.cfg.trace {
		w.scrape, err = scrapeServer(c)
		w.handler = handlerP50(d.srv, w.hitNames, r.cfg.sz.handler)
	}
	return rs, err
}

// memHitLoop is the closed loop of r.width clients re-requesting spaces
// the server holds decoded. Each client times a request from send to
// the last body byte; what the client spends outside that window is
// the generator's own overhead, reported per request.
func (r *run) memHitLoop(parent *span, url string, names []string, ws *warmStats) {
	type target struct {
		body []byte
		hash []byte // `"space_hash":"<want>"`
	}
	targets := make([]target, len(names))
	for i, name := range names {
		want := r.man.Spaces[name]["default"].Hash
		targets[i] = target{enumerateBody(name, false, 0), []byte(`"space_hash":"` + want + `"`)}
	}
	memTier := []byte(`"cache":"mem"`)
	per := r.cfg.sz.memHits / r.width
	seeds := make([]int64, r.width)
	for i := range seeds {
		seeds[i] = r.rng.Int63()
	}

	type result struct {
		lats  []time.Duration
		wall  time.Duration
		bad   int
		first error
	}
	results := make([]result, r.width)
	loop := r.tr.begin(parent, "server", "mem-hit loop", "")
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < r.width; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			sp := r.tr.begin(loop, "server", fmt.Sprintf("client:%d", ci), "")
			defer sp.end()
			c := newClient(url)
			defer c.close()
			rng := rand.New(rand.NewSource(seeds[ci]))
			res := &results[ci]
			res.lats = make([]time.Duration, 0, per)
			t0 := time.Now()
			for i := 0; i < per; i++ {
				tg := &targets[rng.Intn(len(targets))]
				status, body, _, lat, err := c.postRaw(tg.body)
				res.lats = append(res.lats, lat)
				switch {
				case err != nil:
				case status != 200:
					err = fmt.Errorf("mem-hit POST: status %d", status)
				case !bytes.Contains(body, memTier):
					err = fmt.Errorf("mem-hit POST answered from another tier: %s", bytes.TrimSpace(body))
				case !bytes.Contains(body, tg.hash):
					err = fmt.Errorf("mem-hit POST: hash mismatch: %s", bytes.TrimSpace(body))
				}
				if err != nil {
					res.bad++
					if res.first == nil {
						res.first = err
					}
				}
			}
			res.wall = time.Since(t0)
		}(ci)
	}
	wg.Wait()
	ws.memWall = time.Since(start)
	loop.end()

	var overhead time.Duration
	for i := range results {
		res := &results[i]
		ws.memLat = append(ws.memLat, res.lats...)
		overhead += res.wall - sumDur(res.lats)
		r.attempted += len(res.lats)
		r.failed += res.bad
		if res.first != nil && len(r.failures) < 8 {
			r.failures = append(r.failures, res.first.Error())
		}
	}
	if n := len(ws.memLat); n > 0 {
		ws.genOverhead = overhead / time.Duration(n)
	}
}

// downloads fetches stored spaces with one client. The first body seen
// for a name is decoded and gated against the manifest; later bodies
// of that name must be the same bytes.
func (r *run) downloads(parent *span, c *client, names []string, keyOf map[string]string, seen map[string][sha256.Size]byte, ws *warmStats) {
	sp := r.tr.begin(parent, "server", "GET /v1/space loop", "")
	defer sp.end()
	for i := 0; i < r.cfg.sz.gets; i++ {
		name := names[r.rng.Intn(len(names))]
		body, lat, err := c.get("/v1/space/" + keyOf[name])
		ws.getWall += lat
		ws.getBytes += int64(len(body))
		if err == nil {
			sum := sha256.Sum256(body)
			if first, ok := seen[name]; !ok {
				seen[name] = sum
				err = r.gateStored(name, body)
			} else if first != sum {
				err = fmt.Errorf("GET /v1/space for %s: body changed between requests", name)
			}
		}
		r.op(err)
	}
}

// gateStored decodes a served default-tier space file and checks it
// against the manifest.
func (r *run) gateStored(name string, body []byte) error {
	res, err := search.Load(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("decoding served space of %s: %w", name, err)
	}
	id, err := identify(res)
	if err != nil {
		return err
	}
	return r.man.check(name, false, id)
}
