package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// printHost writes the host stamp: CPU count and model, cache sizes,
// Go version, and the grid sizes and working sets of the workloads
// against the last-level cache. It reads /proc and /sys, so it is a
// separate mode, never part of a measured run.
func printHost(w io.Writer) error {
	stamp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"caches":     caches(),
		"grids": map[string]any{
			"serial":   gridStamp(stepN, 1),
			"world4":   gridStamp(stepN, 1),
			"campaign": gridStamp(campaignN, segSteps),
		},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(stamp)
}

// gridStamp describes an n x n workload: its points and the computed
// working set of the serial solver state (per panel: 4 Runge-Kutta
// states of 8 fields, 10 derived fields and 12 operator scratch fields,
// each padded by one halo node on every side).
func gridStamp(n, stepsPerIter int) map[string]any {
	np := 3*(n-1) + 1
	padded := (n + 2) * (n + 2) * (np + 2)
	const fieldsPerPanel = 4*8 + 10 + 12
	return map[string]any{
		"nr_nt_np":                 []int{n, n, np},
		"points":                   points(n),
		"steps_per_iteration":      stepsPerIter,
		"working_set_mib_computed": float64(2*padded*fieldsPerPanel*8) / (1 << 20),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// caches lists cpu0's caches as level/type -> size.
func caches() map[string]string {
	out := map[string]string{}
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		level, err1 := os.ReadFile(dir + "level")
		typ, err2 := os.ReadFile(dir + "type")
		size, err3 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil || err3 != nil {
			break
		}
		out["L"+strings.TrimSpace(string(level))+" "+strings.TrimSpace(string(typ))] = strings.TrimSpace(string(size))
	}
	return out
}
