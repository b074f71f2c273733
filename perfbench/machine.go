package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machine identifies where a result was measured. Results whose machine
// blocks differ are never compared.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LLCBytes   int64  `json:"llc_bytes"`
	GoVersion  string `json:"go_version"`
	// Commit is the git HEAD when the checkout is a git repository, else
	// "unknown"; SourceSHA256 identifies the code either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func machineBlock() machine {
	return machine{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		LLCBytes:     llcBytes(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(),
		SourceSHA256: sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes returns the size of cpu0's highest-level cache from sysfs
// (0 when unavailable).
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best, bestLevel int64
	for _, d := range dirs {
		level := readSysInt(filepath.Join(d, "level"))
		size := readSysSize(filepath.Join(d, "size"))
		if level > bestLevel || (level == bestLevel && size > best) {
			best, bestLevel = size, level
		}
	}
	return best
}

func readSysInt(path string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	return v
}

// readSysSize parses sysfs cache sizes such as "107520K".
func readSysSize(path string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	s := strings.TrimSpace(string(b))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, _ := strconv.ParseInt(s, 10, 64)
	return v * mult
}

func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// dot-directories such as the build directory), in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hostSteal returns the CPU time the hypervisor has taken from this
// machine's CPUs since boot, summed over CPUs (0 where /proc/stat has no
// steal column). On a shared VM, steal is what makes runs of the same code
// drift apart; each run reports its share so outliers can be explained.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(fields[8], 10, 64)
	return time.Duration(ticks) * time.Second / userHZ
}

// userHZ is the unit of /proc/stat times (USER_HZ, 100 on Linux).
const userHZ = 100

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
