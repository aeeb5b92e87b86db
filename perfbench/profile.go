package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The traced run takes one CPU profile per workload with runtime/pprof
// and attributes every sample to a layer of this module from outside the
// program: no code is instrumented. A sample belongs to its innermost
// frame inside this module, so standard-library callees (reflect under
// the snapshot walker, math/rand under an RNG method, encoding/json under
// the serving layer) count toward the module function that called them.

// modulePrefix is the import-path prefix of the program's packages. The
// benchmark's own frames live in package main and are never module frames.
const modulePrefix = "injectable/internal/"

// benchLabel is the pprof label key the benchmark sets around its own
// output checks; those samples are reported as cpu.bench, not charged to
// the layer whose decoder the check happens to call.
const benchLabel = "perfbench"

// cpuLayers lists the layer keys in report order; metric names are
// "cpu." + key.
var cpuLayers = []string{
	"sim.scheduler", "sim.snapshot", "sim.rng",
	"phy", "medium", "link", "injectable", "host", "ids",
	"experiments", "campaign", "scenario", "serve", "fabric", "obs",
	"gc", "other", "bench",
}

// packageLayer maps a module package (the path element after
// internal/) onto its layer. ble holds the link layer's PDU formats,
// CRC, whitening and channel selection; host covers the devices and the
// gatt/att/l2cap/smp/llcrypt stack above the link; pcap is an output of
// the observability plane.
var packageLayer = map[string]string{
	"phy": "phy", "medium": "medium", "link": "link", "ble": "link",
	"injectable": "injectable", "ids": "ids",
	"host": "host", "devices": "host", "gatt": "host", "att": "host",
	"l2cap": "host", "smp": "host", "llcrypt": "host",
	"experiments": "experiments", "campaign": "campaign", "scenario": "scenario",
	"serve": "serve", "fabric": "fabric", "obs": "obs", "pcap": "obs",
}

// splitFunc splits a pprof function name into its package path and the
// rest: "injectable/internal/sim.(*RNG).Rekey" → ("injectable/internal/sim",
// "(*RNG).Rekey").
func splitFunc(fn string) (pkg, name string) {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

// modulePackage returns the first path element after internal/ for a
// module frame, or "" for any other frame.
func modulePackage(fn string) string {
	pkg, _ := splitFunc(fn)
	rest, ok := strings.CutPrefix(pkg, modulePrefix)
	if !ok {
		return ""
	}
	first, _, _ := strings.Cut(rest, "/")
	return first
}

// layerOf attributes one sample stack (leaf first, inlined frames
// expanded) to a layer key.
func layerOf(stack []string, labels map[string]string) string {
	if labels[benchLabel] != "" {
		return "bench"
	}
	for i, fn := range stack {
		pkg := modulePackage(fn)
		if pkg == "" {
			continue
		}
		if pkg == "sim" {
			return simLayer(stack[i:])
		}
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		return "other"
	}
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "gc"
		}
	}
	return "other"
}

// simLayer splits the simulation kernel three ways. stack[0] is the
// innermost module frame and lies in sim. RNG methods are rng. The
// reflective walker is shared by CaptureRoots (snapshot) and VisitRNGs
// (the fork's rekey), so its frames are charged to whichever entry point
// sits above them in the contiguous run of sim frames; Capture.Restore
// and the scheduler's own snapshot/restore are snapshot. Everything else
// in sim — the event heap, arena, clocks, time and trace — is scheduler.
func simLayer(stack []string) string {
	_, name := splitFunc(stack[0])
	if strings.HasPrefix(name, "(*RNG).") || strings.HasPrefix(name, "NewRNG") {
		return "sim.rng"
	}
	for _, fn := range stack {
		if modulePackage(fn) != "sim" {
			break
		}
		_, name := splitFunc(fn)
		switch {
		case strings.HasPrefix(name, "VisitRNGs"):
			return "sim.rng"
		case strings.HasPrefix(name, "CaptureRoots"),
			strings.HasPrefix(name, "(*Capture)."),
			strings.HasPrefix(name, "(*Scheduler).Snapshot"),
			strings.HasPrefix(name, "(*Scheduler).Restore"):
			return "sim.snapshot"
		}
	}
	return "sim.scheduler"
}

// isGCFrame reports runtime frames of the garbage collector's background
// and assist work.
func isGCFrame(fn string) bool {
	switch {
	case strings.HasPrefix(fn, "runtime.gc"),
		strings.HasPrefix(fn, "runtime.bgsweep"),
		strings.HasPrefix(fn, "runtime.bgscavenge"),
		strings.HasPrefix(fn, "runtime.markroot"),
		strings.HasPrefix(fn, "runtime.scanobject"),
		strings.HasPrefix(fn, "runtime.sweepone"):
		return true
	}
	return false
}

// profSample is one decoded CPU-profile sample.
type profSample struct {
	stack  []string // leaf first, inlined frames expanded
	labels map[string]string
	count  int64
}

// cpuShares attributes samples to layers and returns each layer's share
// of all samples, plus the sample total.
func cpuShares(samples []profSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[layerOf(s.stack, s.labels)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total
}

// ---- a minimal decoder for the pprof profile.proto wire format ----

// parseProfile decodes a gzipped pprof profile into samples. Only the
// fields attribution needs are read: samples (location ids, first value,
// string labels), locations (inlined lines), functions (names) and the
// string table.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		value  int64
		labels [][2]int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			first := true
			if err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					if first && len(vals) > 0 {
						s.value, first = int64(vals[0]), false
					}
				case 3:
					var key, str int64
					if err := walkFields(b, func(f int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, [2]int64{key, str})
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.value}
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				ps.stack = append(ps.stack, str(funcs[fn]))
			}
		}
		for _, kv := range s.labels {
			if ps.labels == nil {
				ps.labels = map[string]string{}
			}
			ps.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields iterates the fields of one protobuf message. fn receives the
// field number and, by wire type, the varint value or the
// length-delimited bytes; fixed-width fields are skipped.
func walkFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data) or not (v).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// uvarint decodes one base-128 varint; n <= 0 on malformed input.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		c := b[i]
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// topFrames returns the n module functions with the most samples
// attributed to them (innermost module frame), for the traced run's
// human-readable breakdown.
func topFrames(samples []profSample, n int) []string {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if modulePackage(fn) != "" {
				counts[fn] += s.count
				break
			}
		}
	}
	names := make([]string, 0, len(counts))
	for fn := range counts {
		names = append(names, fn)
	}
	sort.Slice(names, func(a, b int) bool {
		if counts[names[a]] != counts[names[b]] {
			return counts[names[a]] > counts[names[b]]
		}
		return names[a] < names[b]
	})
	if len(names) > n {
		names = names[:n]
	}
	out := make([]string, len(names))
	for i, fn := range names {
		out[i] = fmt.Sprintf("%5.1f%%  %s", 100*float64(counts[fn])/float64(max(total, 1)), fn)
	}
	return out
}
