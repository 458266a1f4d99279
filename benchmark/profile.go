package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// This file reads a runtime/pprof CPU profile (gzipped profile.proto; the
// standard library has no public reader) and attributes each sample to one
// layer, so that the layers' shares sum to 1.

type pbuf struct{ b []byte }

var errProfile = errors.New("malformed CPU profile")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProfile
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProfile
}

// field reads the next field: its number, and either the varint value or the
// length-delimited bytes. Fixed-width fields are skipped (num 0).
func (p *pbuf) field() (num int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProfile
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 1, 5:
		n := 8
		if key&7 == 5 {
			n = 4
		}
		if len(p.b) < n {
			return 0, 0, nil, errProfile
		}
		p.b, num = p.b[n:], 0
	default:
		err = errProfile
	}
	return num, v, data, err
}

// repeated appends a repeated varint field that may be packed.
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type profSample struct {
	locs  []uint64
	value int64
}

// cpuProfile is the decoded part of a profile: per sample the stack as
// function names, innermost first (inlined frames expanded).
type cpuProfile struct {
	stacks [][]string
	values []int64
}

func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		samples []profSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s profSample
			var vals []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if s.locs, err = repeated(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = repeated(vals, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1]) // cpu nanoseconds
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}
	prof := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		prof.stacks = append(prof.stacks, stack)
		prof.values = append(prof.values, s.value)
	}
	return prof, nil
}

// frameOwner names the layer a function belongs to, or "" for frames that
// only pass the cost on to their caller (runtime, sync, strconv, ...).
func frameOwner(fn string) string {
	switch {
	case strings.HasPrefix(fn, "falcon/internal/"):
		pkg := strings.TrimPrefix(fn, "falcon/internal/")
		if i := strings.IndexAny(pkg, "/.("); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range hostShareLayers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "falcon/benchmark/"):
		return "loadgen"
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	}
	for _, p := range []string{"net/http.", "net/http/", "net.", "net/textproto.", "bufio.", "internal/poll.", "syscall.", "internal/runtime/syscall.", "io."} {
		if strings.HasPrefix(fn, p) {
			return "http"
		}
	}
	return ""
}

// stackOwner gives a sample to the innermost frame that has an owner.
// Network and JSON work done on behalf of the load generator (its client
// side) counts as loadgen; the handler middleware of the traced pass does not
// turn the server's work into loadgen. A stack with no owner at all is the
// runtime's own (GC workers, scheduler) or other.
func stackOwner(stack []string) string {
	owner := ""
	for _, fn := range stack {
		if strings.Contains(fn, "handlerSpans") {
			continue
		}
		o := frameOwner(fn)
		switch {
		case o == "":
		case owner == "":
			if owner = o; o != "http" && o != "json" {
				return owner
			}
		case o == "loadgen":
			return "loadgen"
		case o != "http" && o != "json":
			return owner
		}
	}
	switch {
	case owner != "":
		return owner
	case len(stack) > 0 && strings.HasPrefix(stack[0], "runtime."):
		return "runtime"
	}
	return "other"
}

// attribute returns each layer's share of the profile's CPU time.
func (p *cpuProfile) attribute() map[string]float64 {
	shares := make(map[string]float64, len(hostShareLayers))
	for _, l := range hostShareLayers {
		shares[l] = 0
	}
	var total float64
	for i, stack := range p.stacks {
		v := float64(p.values[i])
		shares[stackOwner(stack)] += v
		total += v
	}
	if total == 0 {
		shares["other"] = 1
		return shares
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares
}
