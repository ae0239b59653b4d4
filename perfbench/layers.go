package main

import "strings"

// layers lists the layers CPU samples are attributed to, in report order.
// Every sample lands in exactly one: its leaf frame's source file is looked
// up in fileLayer, then by file-name prefix in prefixLayer, then by package
// in pkgLayer; anything left is "other".
var layers = []string{
	"cpu", "handoff", "sim", "shard", "cache", "smpbus", "core", "directory",
	"interconnect", "fault", "machine", "alloc", "runner", "workload", "other",
}

// fileLayer pins single files that belong to a different layer than the
// rest of their package.
var fileLayer = map[string]string{
	"ccnuma/internal/sim/engine.go":    "sim",
	"ccnuma/internal/sim/resource.go":  "sim",
	"ccnuma/internal/sim/shard.go":     "shard",
	"ccnuma/internal/machine/chaos.go": "fault",
	"runtime/chan.go":                  "handoff",
	"runtime/proc.go":                  "handoff",
	"runtime/select.go":                "handoff",
	"runtime/sema.go":                  "handoff",
	"runtime/os_linux.go":              "handoff", // futex sleep and wake
	"runtime/sys_linux_amd64.s":        "handoff", // the futex system call
	"runtime/asm_amd64.s":              "handoff", // goroutine switch: gogo, mcall, systemstack
	"runtime/stubs.go":                 "handoff",
	"runtime/malloc.go":                "alloc",
	"runtime/mbitmap.go":               "alloc",
	"runtime/mheap.go":                 "alloc",
	"runtime/mcache.go":                "alloc",
	"runtime/mcentral.go":              "alloc",
	"runtime/mbarrier.go":              "alloc",
	"runtime/mwbbuf.go":                "alloc",
	"runtime/mfixalloc.go":             "alloc",
	"runtime/msize.go":                 "alloc",
	"runtime/memclr_amd64.s":           "alloc",
	"runtime/slice.go":                 "alloc", // growslice
}

// prefixLayer assigns runtime file families by file-name prefix.
var prefixLayer = map[string]string{
	"runtime/lock_":    "handoff",
	"runtime/mgc":      "alloc",
	"runtime/mspan":    "alloc",
	"runtime/mpage":    "alloc",
	"runtime/mpalloc":  "alloc",
	"runtime/mranges":  "alloc",
	"runtime/mstats":   "alloc",
	"runtime/mcheckmk": "alloc",
}

// pkgLayer assigns whole packages.
var pkgLayer = map[string]string{
	"ccnuma/internal/cpu":          "cpu",
	"ccnuma/internal/prog":         "cpu",
	"ccnuma/internal/cache":        "cache",
	"ccnuma/internal/smpbus":       "smpbus",
	"ccnuma/internal/core":         "core",
	"ccnuma/internal/protocol":     "core",
	"ccnuma/internal/directory":    "directory",
	"ccnuma/internal/interconnect": "interconnect",
	"ccnuma/internal/fault":        "fault",
	"ccnuma/internal/machine":      "machine",
	"ccnuma/internal/memaddr":      "machine",
	"ccnuma/internal/config":       "machine",
	"ccnuma/internal/stats":        "machine",
	"ccnuma/internal/runner":       "runner",
	"ccnuma/internal/workload":     "workload",
}

// layerOf attributes a leaf source key (see sourceKey) to its layer.
func layerOf(key string) string {
	if l, ok := fileLayer[key]; ok {
		return l
	}
	for p, l := range prefixLayer {
		if strings.HasPrefix(key, p) {
			return l
		}
	}
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		if l, ok := pkgLayer[key[:i]]; ok {
			return l
		}
	}
	return "other"
}

// selfShares turns leaf-file sample counts into each layer's share of all
// samples; the shares of every layer sum to 1 when there are samples.
func selfShares(leaf map[string]int64) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	var total int64
	for _, n := range leaf {
		total += n
	}
	if total == 0 {
		return out
	}
	for key, n := range leaf {
		out[layerOf(key)] += float64(n) / float64(total)
	}
	return out
}
