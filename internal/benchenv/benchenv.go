// Package benchenv captures the machine environment a benchmark record
// was measured on, so nomad-loadgen's -out record is self-describing:
// two records can only be compared meaningfully when their CPU model,
// feature flags and runtime configuration are known.
package benchenv

import (
	"os"
	"runtime"
	"strings"

	"nomad/internal/vecmath"
)

// Env is the environment block embedded in a benchmark record.
type Env struct {
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel is the kernel-reported processor name ("model name" in
	// /proc/cpuinfo); empty when the platform doesn't expose one.
	CPUModel string `json:"cpu_model,omitempty"`
	// SIMDFeatures is the vecmath CPU feature list the SIMD kernels
	// require and detected ("avx2,fma"), empty when the dispatch is on
	// the portable fallbacks.
	SIMDFeatures string `json:"simd_features,omitempty"`
	// SIMDEnabled is whether the SIMD kernels were actually dispatched
	// at capture time (detection AND no NOMAD_NO_SIMD override).
	SIMDEnabled bool `json:"simd_enabled"`
}

// Capture snapshots the current environment.
func Capture() Env {
	return Env{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		SIMDFeatures: vecmath.Features(),
		SIMDEnabled:  vecmath.SIMDEnabled(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo. Best-effort:
// returns "" on platforms without it.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name", "Processor", "cpu model": // x86, arm, mips spellings
			return strings.TrimSpace(val)
		}
	}
	return ""
}
