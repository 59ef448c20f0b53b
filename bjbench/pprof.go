package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile onto the pipeline's stage
// methods. It decodes just enough of the profile.proto wire format
// (samples, locations with their inlined lines, functions, strings) to walk
// each sample's stack; the module takes no dependencies beyond the
// standard library.

// Stages, in reporting order. Every sample inside pipeline.(*Machine).Tick
// lands in exactly one.
var stages = []string{"fetch", "dispatch", "issue", "complete", "commit", "squash", "other"}

// stageOf maps a pipeline method name to its stage ("" when the method is
// not a stage method). Matching runs leaf-first, so squash called from
// commit counts as squash.
func stageOf(fn string) string {
	const recv = "blackjack/internal/pipeline.(*Machine)."
	if !strings.HasPrefix(fn, recv) {
		return ""
	}
	m := strings.TrimPrefix(fn, recv)
	switch {
	case strings.HasPrefix(m, "fetch"):
		return "fetch"
	case strings.HasPrefix(m, "dispatch"):
		return "dispatch"
	case strings.HasPrefix(m, "issue"):
		return "issue"
	case m == "resolveCompletions":
		return "complete"
	case strings.HasPrefix(m, "commit"):
		return "commit"
	case m == "squash":
		return "squash"
	}
	return ""
}

// tickFunc marks a sample as taken inside the cycle loop.
const tickFunc = "blackjack/internal/pipeline.(*Machine).Tick"

// StageShares folds a gzipped CPU profile onto the pipeline stages and
// returns each stage's share of the samples taken inside Machine.Tick, plus
// that sample count.
func StageShares(profile []byte) (map[string]float64, int, error) {
	stacks, err := decodeStacks(profile)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, st := range stacks {
		inTick := false
		stage := ""
		for _, fn := range st.funcs { // leaf first
			if stage == "" {
				stage = stageOf(fn)
			}
			if fn == tickFunc {
				inTick = true
				break
			}
		}
		if !inTick {
			continue
		}
		if stage == "" {
			stage = "other"
		}
		counts[stage] += st.count
		total += st.count
	}
	shares := map[string]float64{}
	for _, s := range stages {
		if total > 0 {
			shares[s] = float64(counts[s]) / float64(total)
		} else {
			shares[s] = 0
		}
	}
	return shares, int(total), nil
}

// stack is one profile sample: its function names, leaf first, and its
// sample count.
type stack struct {
	funcs []string
	count int64
}

// decodeStacks decodes a gzipped profile.proto into resolved stacks.
func decodeStacks(profile []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64 // the CPU profile's first value is the sample count
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err = fields(raw, func(f int, wt int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := fields(b, func(f, wt int, v uint64, b []byte) error {
				switch {
				case f == 1 && wt == 0:
					s.locs = append(s.locs, v)
				case f == 1 && wt == 2:
					s.locs = append(s.locs, packed(b)...)
				case f == 2 && wt == 0:
					s.values = append(s.values, v)
				case f == 2 && wt == 2:
					s.values = append(s.values, packed(b)...)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(f, wt int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(f, wt int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errProto
		}
		st := stack{count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				if n := funcs[fid]; n >= 0 && int(n) < len(strs) {
					st.funcs = append(st.funcs, strs[n])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("pprof: malformed profile")

// fields walks the top-level fields of one protobuf message, calling fn
// with the field number, wire type, and the varint value or the
// length-delimited bytes.
func fields(b []byte, fn func(field, wireType int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a packed repeated varint field.
func packed(b []byte) []uint64 {
	var out []uint64
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return out
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}
