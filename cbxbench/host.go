package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostInfo is recorded with every result so numbers from different
// hosts, toolchains or code are never compared by accident.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
	Seed       int64  `json:"seed"`
}

func describeHost(seed int64) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     sourceHash(),
		Seed:       seed,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	//lint:ignore unchecked-error read-only handle
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the git commit run.sh found, or "unknown" outside a git
// checkout.
func commit() string {
	if c := os.Getenv("CBXBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceHash identifies the code under test even without git, and with
// uncommitted changes: a hash over every Go source and go.mod file under
// the working directory.
func sourceHash() string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	var list strings.Builder
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		sum := sha256.Sum256(data)
		list.WriteString(p + " " + hex.EncodeToString(sum[:]) + "\n")
	}
	sum := sha256.Sum256([]byte(list.String()))
	return "sha256:" + hex.EncodeToString(sum[:])[:16]
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in
// MiB, falling back to the Go runtime's obtained memory off Linux.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
