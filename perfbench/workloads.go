package main

import (
	"bytes"
	"compress/zlib"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"lzssfpga/internal/cache"
	"lzssfpga/internal/cache/dict"
	"lzssfpga/internal/cluster"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
	"lzssfpga/internal/workload"
)

// The three workloads. Why each exists is in NOTES.md.
var workloads = map[string]func(seed int64) (*bench, error){
	"bulk-tcp":    newBulkTCP,
	"hot-cluster": newHotCluster,
	"archive-l11": newArchiveL11,
}

const (
	clients = 2 // load never exceeds the 2 CPUs of the reference box

	// corpusBytes is the size of the corpus bulk-tcp and archive-l11
	// draw their windows from.
	corpusBytes = 12 << 20

	bulkWindow = 1 << 20
	bulkSample = 8

	archiveWindow = 256 << 10
	archiveSample = 8
	archiveLevel  = 11

	hotDocs     = 240
	hotBackends = 3
	// hotCacheBytes is about a fifth of the document set's compressed
	// size (both dictionary variants, ~5.4 MiB), so the front's LRU
	// keeps evicting and every timed window has hits, misses and
	// evictions.
	hotCacheBytes = 1 << 20
	hotZipfS      = 1.1
	hotWarmOps    = 300
)

// dataSeed fixes the data every workload draws from — the corpus, the
// hot document set and the verification sample — as the paper fixes
// its Wikipedia and CAN corpora. --seed draws the op stream from that
// data, so compression_ratio, taken over the fixed sample, is the same
// for every seed and is gated exactly.
const dataSeed = 20120521

// opTimeout bounds one client call; a run that hits it has a hung
// server, which the op reports as a failure.
const opTimeout = 60 * time.Second

// corpus interleaves 64 KiB chunks of wiki text, CAN frames and JSON
// records, so every window of it mixes all three classes.
func corpus(n int, seed int64) []byte {
	const chunk = 64 << 10
	parts := [][]byte{
		workload.Wiki(n/3+chunk, seed),
		workload.CAN(n/3+chunk, seed+1),
		workload.JSONish(n/3+chunk, seed+2),
	}
	out := make([]byte, 0, n+chunk)
	for off := 0; len(out) < n; off += chunk {
		for _, p := range parts {
			out = append(out, p[off:off+chunk]...)
		}
	}
	return out[:n]
}

// clientRNGs gives every client its own input stream.
func clientRNGs(seed int64) []*rand.Rand {
	rs := make([]*rand.Rand, clients)
	for c := range rs {
		rs[c] = rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
	}
	return rs
}

// windowAt draws a seeded window of data.
func windowAt(rng *rand.Rand, data []byte, n int) []byte {
	off := rng.Intn(len(data) - n + 1)
	return data[off : off+n]
}

// verifyZlib inflates z with the standard library's zlib reader — an
// implementation independent of the program's own inflater — and
// checks that it yields want.
func verifyZlib(z, preset, want []byte) error {
	var (
		r   io.ReadCloser
		err error
	)
	if preset != nil {
		r, err = zlib.NewReaderDict(bytes.NewReader(z), preset)
	} else {
		r, err = zlib.NewReader(bytes.NewReader(z))
	}
	if err != nil {
		return fmt.Errorf("stdlib zlib: %w", err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("stdlib zlib: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("stdlib zlib: %w", errMismatch)
	}
	return nil
}

// sample runs check(i) for i in [0, n) on the workload's clients, as
// its set-up verification pass, and counts outcomes into b.
func (b *bench) sample(n int, check func(c, i int) error) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				err := check(c, i)
				mu.Lock()
				b.checked++
				if err != nil {
					b.checkFailed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

// ratioSum accumulates Σ payload and Σ served bytes of a sample.
type ratioSum struct {
	mu         sync.Mutex
	in, served int64
}

func (r *ratioSum) add(in, served int) {
	r.mu.Lock()
	r.in += int64(in)
	r.served += int64(served)
	r.mu.Unlock()
}

func (r *ratioSum) ratio() float64 {
	if r.served == 0 {
		return 0
	}
	return float64(r.in) / float64(r.served)
}

// newBulkTCP: one server with lzssd's defaults (-level min, cache off)
// behind its framed TCP front, one connection per client; an op
// compresses a 1 MiB window and decompresses the answer.
func newBulkTCP(seed int64) (*bench, error) {
	data := corpus(corpusBytes, dataSeed)
	srv, err := server.New(server.Config{LevelName: "min"})
	if err != nil {
		return nil, err
	}
	addr, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	conns := make([]*client.TCP, clients)
	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		srv.Close()
	}
	for i := range conns {
		if conns[i], err = client.DialTCP(addr, 0); err != nil {
			closeAll()
			return nil, err
		}
	}
	rngs := clientRNGs(seed)
	params := srv.Config().Params
	lim := srv.Config().Decode
	var b *bench
	b = &bench{
		warmOps: 2,
		next: func(c int) opInput {
			return opInput{payload: windowAt(rngs[c], data, bulkWindow)}
		},
		do: func(c int, in opInput, sp *spanLog, id int64) error {
			conn := conns[c]
			if err := conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
				return err
			}
			t0 := time.Now()
			z, err := conn.Compress(in.payload)
			sp.add(id, "client.compress", "op", t0)
			if err != nil {
				return err
			}
			if sp != nil {
				// The traced run checks every served stream with the
				// stdlib oracle too.
				if err := verifyZlib(b.tamper(z), nil, in.payload); err != nil {
					return err
				}
			}
			t1 := time.Now()
			back, err := conn.Decompress(b.tamper(z))
			sp.add(id, "client.decompress", "op", t1)
			if err != nil {
				return err
			}
			if !bytes.Equal(b.tamper(back), in.payload) {
				return errMismatch
			}
			return nil
		},
		replay: func(l *ledger, id int64, in opInput) error {
			z, err := l.engine(id, "op", in.payload, params, nil)
			if err != nil {
				return err
			}
			err = l.top(id, "client.verify", len(in.payload), func() error {
				return verifyZlib(z, nil, in.payload)
			})
			if err != nil {
				return err
			}
			if err := l.frames(id, "", in.payload, z); err != nil {
				return err
			}
			return l.inflate(id, "op", z, nil, lim, in.payload)
		},
		close: closeAll,
	}
	// Verification sample: the served streams give compression_ratio
	// and each one is checked by the stdlib oracle and by a round trip.
	srng := rand.New(rand.NewSource(dataSeed))
	payloads := make([][]byte, bulkSample)
	for i := range payloads {
		payloads[i] = windowAt(srng, data, bulkWindow)
	}
	var rs ratioSum
	b.sample(bulkSample, func(c, i int) error {
		p := payloads[i]
		if err := conns[c].SetDeadline(time.Now().Add(opTimeout)); err != nil {
			return err
		}
		z, err := conns[c].Compress(p)
		if err != nil {
			return err
		}
		rs.add(len(p), len(z))
		if err := verifyZlib(z, nil, p); err != nil {
			return err
		}
		back, err := conns[c].Decompress(z)
		if err != nil {
			return err
		}
		if !bytes.Equal(back, p) {
			return errMismatch
		}
		return nil
	})
	b.ratio = rs.ratio()
	return b, nil
}

// newArchiveL11: one server at level 11 (the suffix-array tier) behind
// its HTTP front; an op is a compress-only request for a 256 KiB
// window whose response the stdlib zlib reader decodes.
func newArchiveL11(seed int64) (*bench, error) {
	data := corpus(corpusBytes, dataSeed)
	srv, err := server.New(server.Config{
		Params:    lzss.SARatioParams(archiveLevel),
		LevelName: fmt.Sprint(archiveLevel),
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.ListenHTTP("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := client.NewHTTP(addr)
	rngs := clientRNGs(seed)
	params := srv.Config().Params
	compress := func(p []byte) ([]byte, error) {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		return h.Compress(ctx, p)
	}
	var b *bench
	b = &bench{
		warmOps: 2,
		next: func(c int) opInput {
			return opInput{payload: windowAt(rngs[c], data, archiveWindow)}
		},
		do: func(c int, in opInput, sp *spanLog, id int64) error {
			t0 := time.Now()
			z, err := compress(in.payload)
			sp.add(id, "client.compress", "op", t0)
			if err != nil {
				return err
			}
			return verifyZlib(b.tamper(z), nil, in.payload)
		},
		replay: func(l *ledger, id int64, in opInput) error {
			z, err := l.engine(id, "op", in.payload, params, nil)
			if err != nil {
				return err
			}
			return l.top(id, "client.verify", len(in.payload), func() error {
				return verifyZlib(z, nil, in.payload)
			})
		},
		close: func() { srv.Close() },
	}
	srng := rand.New(rand.NewSource(dataSeed))
	payloads := make([][]byte, archiveSample)
	for i := range payloads {
		payloads[i] = windowAt(srng, data, archiveWindow)
	}
	var rs ratioSum
	b.sample(archiveSample, func(c, i int) error {
		z, err := compress(payloads[i])
		if err != nil {
			return err
		}
		rs.add(len(payloads[i]), len(z))
		return verifyZlib(z, nil, payloads[i])
	})
	b.ratio = rs.ratio()
	return b, nil
}

// hotDoc describes document r of the hot set, r being its popularity
// rank: sizes cycle 4/16/64 KiB and classes wiki/CAN/JSON along the
// ranks, so the Zipf head mixes every size and class.
func hotDoc(r int) (size int, class string) {
	sizes := [3]int{4 << 10, 16 << 10, 64 << 10}
	classes := [3]string{"wiki", "can", "json"}
	return sizes[r%3], classes[(r/3)%3]
}

// newHotCluster: a cluster front with its result cache on in front of
// three TCP-only backends holding the built-in dictionaries; both
// clients share one pipelined Mux connection. An op compresses a
// Zipf-drawn document (half the ops against its class's preset
// dictionary), checks the stream against the document's reference,
// then decompresses it.
func newHotCluster(seed int64) (*bench, error) {
	gens := map[string]workload.Generator{"wiki": workload.Wiki, "can": workload.CAN, "json": workload.JSONish}
	docs := make([][]byte, hotDocs)
	for r := range docs {
		size, class := hotDoc(r)
		docs[r] = gens[class](size, dataSeed+int64(r))
	}
	presets := map[string][]byte{}
	for _, class := range dict.BuiltinClasses() {
		p, err := dict.Builtin(class)
		if err != nil {
			return nil, err
		}
		presets[class] = p
	}

	var (
		backends []*server.Server
		c        *cluster.Cluster
		front    *cluster.Front
		mux      *client.Mux
	)
	closeAll := func() {
		if mux != nil {
			mux.Close()
		}
		if front != nil {
			front.Close()
		}
		if c != nil {
			c.Close()
		}
		for _, s := range backends {
			s.Close()
		}
	}
	fail := func(err error) (*bench, error) {
		closeAll()
		return nil, err
	}
	specs := make([]cluster.BackendSpec, hotBackends)
	for i := range specs {
		reg, err := dict.NewBuiltinRegistry()
		if err != nil {
			return fail(err)
		}
		s, err := server.New(server.Config{LevelName: "min", Dicts: reg})
		if err != nil {
			return fail(err)
		}
		backends = append(backends, s)
		addr, err := s.ListenTCP("127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		specs[i] = cluster.BackendSpec{TCP: addr}
	}
	var err error
	if c, err = cluster.New(cluster.Config{Backends: specs}); err != nil {
		return fail(err)
	}
	front = cluster.NewFront(c, cluster.FrontConfig{CacheBytes: hotCacheBytes})
	addr, err := front.ListenTCP("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	if mux, err = client.DialMux(addr, 0); err != nil {
		return fail(err)
	}

	// refs[r][v] is document r's stream without (v=0) and with (v=1)
	// its class's dictionary: the served stream is a deterministic
	// function of payload, configuration and dictionary, so every
	// later compress response must equal it byte for byte.
	refs := make([][2][]byte, hotDocs)
	variant := func(in opInput) int {
		if in.dict != "" {
			return 1
		}
		return 0
	}
	call := func(op byte, p []byte, dictID string) ([]byte, error) {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		out, _, err := mux.DoDict(ctx, op, p, dictID)
		return out, err
	}
	rngs := clientRNGs(seed)
	zipfs := make([]*rand.Zipf, clients)
	for i := range zipfs {
		zipfs[i] = rand.NewZipf(rngs[i], hotZipfS, 1, hotDocs-1)
	}
	params := backends[0].Config().Params
	lim := backends[0].Config().Decode
	// The ledger's cache gets the front's budget and the same op
	// sequence, so its hits and misses follow the front's.
	replayCache := cache.New(cache.Config{MaxBytes: hotCacheBytes})

	var b *bench
	b = &bench{
		warmOps: hotWarmOps,
		next: func(ci int) opInput {
			r := int(zipfs[ci].Uint64())
			in := opInput{payload: docs[r], doc: r}
			if rngs[ci].Intn(2) == 0 {
				_, in.dict = hotDoc(r)
			}
			return in
		},
		do: func(ci int, in opInput, sp *spanLog, id int64) error {
			t0 := time.Now()
			z, err := call(server.OpCompress, in.payload, in.dict)
			sp.add(id, "client.compress", "op", t0)
			if err != nil {
				return err
			}
			if !bytes.Equal(b.tamper(z), refs[in.doc][variant(in)]) {
				return errMismatch
			}
			t1 := time.Now()
			back, err := call(server.OpDecompress, z, in.dict)
			sp.add(id, "client.decompress", "op", t1)
			if err != nil {
				return err
			}
			if !bytes.Equal(b.tamper(back), in.payload) {
				return errMismatch
			}
			return nil
		},
		replay: func(l *ledger, id int64, in opInput) error {
			z := refs[in.doc][variant(in)]
			preset := presets[in.dict]
			if err := l.frames(id, in.dict, in.payload, z); err != nil {
				return err
			}
			if err := l.cachedCompress(id, replayCache, c, in, z); err != nil {
				return err
			}
			if err := l.clusterDecompress(id, c, mux, z, in.dict, in.payload); err != nil {
				return err
			}
			// The backend's layers, measured in-process: nested inside
			// the cluster.* hops above, so outside the attributed sum.
			engineZ, err := l.engine(id, "cluster.compress", in.payload, params, preset)
			if err != nil {
				return err
			}
			if !bytes.Equal(engineZ, z) {
				return fmt.Errorf("engine replay: %w", errMismatch)
			}
			return l.inflate(id, "cluster.decompress", z, preset, lim, in.payload)
		},
		cacheStats: front.CacheStats,
		close:      closeAll,
	}

	// Verification pass over every document and variant, least popular
	// first, so the front cache ends it holding the hottest entries.
	n := 2 * hotDocs
	var rs ratioSum
	b.sample(n, func(_, i int) error {
		r := hotDocs - 1 - i/2
		in := opInput{payload: docs[r], doc: r}
		if i%2 == 1 {
			_, in.dict = hotDoc(r)
		}
		z, err := call(server.OpCompress, in.payload, in.dict)
		if err != nil {
			return err
		}
		rs.add(len(in.payload), len(z))
		refs[r][variant(in)] = z
		if err := verifyZlib(z, presets[in.dict], in.payload); err != nil {
			return err
		}
		back, err := call(server.OpDecompress, z, in.dict)
		if err != nil {
			return err
		}
		if !bytes.Equal(back, in.payload) {
			return errMismatch
		}
		return nil
	})
	b.ratio = rs.ratio()
	return b, nil
}
