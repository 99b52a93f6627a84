package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"ihtl"
	"ihtl/internal/gen"
	"ihtl/internal/xrand"
)

// The benchmark owns its edge generators. internal/gen returns built
// graphs, not edge lists, and draws from one sequential stream; the
// set-up metric needs the raw list, and 16 M R-MAT edges from one
// stream cost more seconds than a run may spend outside measuring.
// These generators take their parameters from gen's config structs
// and keep gen's distributions, but draw fixed-size chunks from
// independent substreams in parallel, so the list is a function of
// (parameters, seed) alone — not of worker count or schedule, and not
// of later edits to internal/gen.

// edgeList is one generated input: a raw directed edge list over
// [0, numV) without self-loops, duplicates left in.
type edgeList struct {
	numV  int
	edges []ihtl.Edge
}

const (
	rmatChunk = 1 << 16 // edges per R-MAT substream
	webChunk  = 1 << 13 // pages per web substream
)

// substream returns the generator of chunk i under seed.
func substream(seed uint64, i int) *xrand.Xoshiro256 {
	return xrand.New(seed ^ xrand.Mix64(uint64(i)+1))
}

// forChunks runs fn(i) for i in [0, n) across the pool's workers. The
// schedule cannot reach the output: chunk i draws from substream i and
// fills its own range.
func forChunks(pool *ihtl.Pool, n int, fn func(i int)) {
	pool.ForDynamic(n, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// rmatEdges draws 2^Scale × EdgeFactor R-MAT edges (quadrant
// probabilities A, B, C with per-level noise, as gen.RMAT). A draw
// that lands on a self-loop is repeated, so every chunk holds exactly
// its share and chunks fill disjoint ranges.
func rmatEdges(cfg gen.RMATConfig, pool *ihtl.Pool) (edgeList, error) {
	if err := cfg.Validate(); err != nil {
		return edgeList{}, err
	}
	n := 1 << uint(cfg.Scale)
	m := n * cfg.EdgeFactor
	// Per-level cumulative quadrant thresholds on a 32-bit draw.
	head := xrand.New(cfg.Seed)
	ta, tb, tc := make([]uint32, cfg.Scale), make([]uint32, cfg.Scale), make([]uint32, cfg.Scale)
	for l := 0; l < cfg.Scale; l++ {
		a := cfg.A * (1 + cfg.Noise*(2*head.Float64()-1))
		b := cfg.B * (1 + cfg.Noise*(2*head.Float64()-1))
		c := cfg.C * (1 + cfg.Noise*(2*head.Float64()-1))
		sum := a + b + c + (1 - cfg.A - cfg.B - cfg.C)
		scale := float64(math.MaxUint32) / sum
		ta[l], tb[l], tc[l] = uint32(a*scale), uint32((a+b)*scale), uint32((a+b+c)*scale)
	}
	edges := make([]ihtl.Edge, m)
	forChunks(pool, (m+rmatChunk-1)/rmatChunk, func(i int) {
		rng := substream(cfg.Seed, i)
		for e := i * rmatChunk; e < min((i+1)*rmatChunk, m); e++ {
			var src, dst uint32
			for src == dst {
				src, dst = 0, 0
				var bits uint64
				for l := 0; l < cfg.Scale; l++ {
					if l%2 == 0 {
						bits = rng.Uint64()
					} else {
						bits >>= 32
					}
					r, half := uint32(bits), uint32(1)<<uint(cfg.Scale-1-l)
					switch {
					case r < ta[l]:
					case r < tb[l]:
						dst += half
					case r < tc[l]:
						src += half
					default:
						src += half
						dst += half
					}
				}
			}
			edges[e] = ihtl.Edge{Src: src, Dst: dst}
		}
	})
	return edgeList{numV: n, edges: edges}, nil
}

// webEdges draws a web-like list (host blocks, Zipf in-hubs, small
// capped out-degrees, as gen.Web). The shared structure — hub pages
// and out-degrees — comes from the head stream; link targets come from
// one substream per chunk of pages.
func webEdges(cfg gen.WebConfig, pool *ihtl.Pool) (edgeList, error) {
	if err := cfg.Validate(); err != nil {
		return edgeList{}, err
	}
	n := cfg.NumV
	head := xrand.New(cfg.Seed)
	numHubs := max(1, int(cfg.HubFraction*float64(n)))
	hubs := head.Perm(n)[:numHubs]
	outDeg := xrand.PowerLawDegrees(head, n, 2.2, 1, cfg.MaxOutDegree)
	var sum int
	for _, d := range outDeg {
		sum += d
	}
	scale := float64(cfg.MeanOutDegree) * float64(n) / float64(sum)
	offset := make([]int, n+1)
	for v, d := range outDeg {
		d = min(max(int(float64(d)*scale+0.5), 1), cfg.MaxOutDegree)
		offset[v+1] = offset[v] + d
	}
	edges := make([]ihtl.Edge, offset[n])
	forChunks(pool, (n+webChunk-1)/webChunk, func(i int) {
		rng := substream(cfg.Seed, i)
		zipf := xrand.NewZipf(rng, cfg.ZipfExponent, 1, uint64(numHubs))
		var localZipf *xrand.Zipf
		if cfg.LocalZipfExponent > 1 && cfg.HostSize > 1 {
			localZipf = xrand.NewZipf(rng, cfg.LocalZipfExponent, 1, uint64(cfg.HostSize))
		}
		for v := i * webChunk; v < min((i+1)*webChunk, n); v++ {
			blockStart := v / cfg.HostSize * cfg.HostSize
			block := min(blockStart+cfg.HostSize, n) - blockStart
			for e := offset[v]; e < offset[v+1]; e++ {
				dst := v
				for dst == v {
					switch {
					case rng.Float64() < cfg.Local && block > 1:
						if localZipf != nil {
							dst = blockStart + int(localZipf.Uint64())%block
						} else {
							dst = blockStart + rng.Intn(block)
						}
					case rng.Float64() < cfg.HubBias:
						dst = hubs[zipf.Uint64()]
					default:
						dst = rng.Intn(n)
					}
				}
				edges[e] = ihtl.Edge{Src: uint32(v), Dst: uint32(dst)}
			}
		}
	})
	return edgeList{numV: n, edges: edges}, nil
}

// Edge-list cache: benchmark/.cache/<hash of key>.edges holds
// magic, the key itself, numV, the count and the raw pairs. The key
// spells out generator, parameters, seed and format version, so a
// file is reused only for exactly the input it was written for.
const (
	cacheMagic    = "IHTLEDGE"
	cacheVersion  = 1
	cacheMaxFiles = 6 // a scale-20 list is 134 MB; older files are evicted
)

func cachePath(dir, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(dir, fmt.Sprintf("%016x.edges", h.Sum64()))
}

// loadEdges returns the cached list for key, or ok=false when there is
// none or it does not match (a damaged file is regenerated, not fatal).
func loadEdges(dir, key string) (el edgeList, ok bool) {
	f, err := os.Open(cachePath(dir, key))
	if err != nil {
		return edgeList{}, false
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	head := make([]byte, len(cacheMagic)+8)
	if _, err := io.ReadFull(r, head); err != nil || string(head[:len(cacheMagic)]) != cacheMagic {
		return edgeList{}, false
	}
	keyLen := binary.LittleEndian.Uint64(head[len(cacheMagic):])
	if keyLen != uint64(len(key)) {
		return edgeList{}, false
	}
	rest := make([]byte, len(key)+16)
	if _, err := io.ReadFull(r, rest); err != nil || string(rest[:len(key)]) != key {
		return edgeList{}, false
	}
	numV := binary.LittleEndian.Uint64(rest[len(key):])
	count := binary.LittleEndian.Uint64(rest[len(key)+8:])
	st, err := f.Stat()
	if err != nil || uint64(st.Size()) != uint64(len(head)+len(rest))+8*count || numV > math.MaxUint32 {
		return edgeList{}, false
	}
	edges := make([]ihtl.Edge, count)
	buf := make([]byte, 8<<10)
	for i := 0; i < len(edges); {
		chunk := buf[:min(len(buf), 8*(len(edges)-i))]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return edgeList{}, false
		}
		for o := 0; o < len(chunk); o += 8 {
			edges[i] = ihtl.Edge{Src: binary.LittleEndian.Uint32(chunk[o:]), Dst: binary.LittleEndian.Uint32(chunk[o+4:])}
			if uint64(edges[i].Src) >= numV || uint64(edges[i].Dst) >= numV {
				return edgeList{}, false
			}
			i++
		}
	}
	return edgeList{numV: int(numV), edges: edges}, true
}

// storeEdges writes the list under key (temp file, then rename) and
// evicts the oldest files beyond cacheMaxFiles.
func storeEdges(dir, key string, el edgeList) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "tmp-*.edges")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	w := bufio.NewWriterSize(tmp, 1<<20)
	var u [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(u[:], x)
		w.Write(u[:])
	}
	w.WriteString(cacheMagic)
	put(uint64(len(key)))
	w.WriteString(key)
	put(uint64(el.numV))
	put(uint64(len(el.edges)))
	for _, e := range el.edges {
		binary.LittleEndian.PutUint32(u[:], e.Src)
		binary.LittleEndian.PutUint32(u[4:], e.Dst)
		w.Write(u[:])
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), cachePath(dir, key)); err != nil {
		return err
	}
	return evictOldest(dir)
}

func evictOldest(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type aged struct {
		name string
		mod  int64
	}
	var files []aged
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			files = append(files, aged{e.Name(), info.ModTime().UnixNano()})
		}
	}
	sort.Slice(files, func(a, b int) bool { return files[a].mod > files[b].mod })
	for _, f := range files[min(len(files), cacheMaxFiles):] {
		if err := os.Remove(filepath.Join(dir, f.name)); err != nil {
			return err
		}
	}
	return nil
}
