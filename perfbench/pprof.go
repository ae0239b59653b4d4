package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// leafSamples decodes a runtime/pprof CPU profile (gzipped profile.proto)
// and returns its sample counts keyed by the leaf frame's source file, as
// "<package path>/<file name>" (ccnuma/internal/sim/engine.go,
// runtime/chan.go), which does not depend on where the sources were built.
// Samples labelled with the calLabel key (the calibration rounds) are left
// out. Only the fields this needs are decoded: samples and their label keys,
// locations, functions and the string table.
func leafSamples(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		loc    uint64
		n      int64
		labels []uint64 // label key string indexes
	}
	var (
		samples  []sample
		strs     []string
		locFunc  = map[uint64]uint64{}    // location id -> innermost function id
		funcName = map[uint64][2]uint64{} // function id -> (name, filename) string indexes
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id = 1, value = 2 (both repeated), label = 3 (key = 1)
			var locs, vals, labels []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(&locs, v, b)
				case 2:
					return repeated(&vals, v, b)
				case 3:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							labels = append(labels, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			samples = append(samples, sample{locs[0], int64(vals[0]), labels})
		case 4: // Location: id = 1, line = 4 (the first line is the innermost inlined frame)
			var id, fn uint64
			seen := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !seen:
					seen = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function: id = 1, name = 2, filename = 4
			var id, name, file uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
				return nil
			})
			funcName[id] = [2]uint64{name, file}
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := map[string]int64{}
samples:
	for _, s := range samples {
		for _, k := range s.labels {
			if str(k) == calLabel {
				continue samples
			}
		}
		f := funcName[locFunc[s.loc]]
		out[sourceKey(str(f[0]), str(f[1]))] += s.n
	}
	return out, nil
}

// sourceKey names a frame's file by its package path (taken from the
// function's symbol, which -trimpath does not change) and base file name.
func sourceKey(funcName, file string) string {
	if funcName == "" || file == "" {
		return "?"
	}
	if i := strings.IndexByte(funcName, '['); i >= 0 {
		funcName = funcName[:i] // generic instantiation: the shape may contain '/' and '.'
	}
	pkg := funcName
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	return pkg + "/" + path.Base(file)
}

// fields walks the protobuf fields of msg, passing each one's number and
// its value (varint and fixed-width fields) or payload (length-delimited).
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends one element of a repeated varint field, in either the
// packed (payload of varints) or the unpacked (single varint) encoding.
func repeated(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
