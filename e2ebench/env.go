package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// flushPolicy is the durability the sealed stores get, unchanged from
// segstore: the segment file and the manifest are each fsynced.
const flushPolicy = "two fsyncs per sealed segment (segment file, then manifest)"

// environment records what the numbers depend on besides the code.
func environment(storeDir string) map[string]string {
	env := map[string]string{
		"commit":       "unknown",
		"go":           runtime.Version(),
		"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":        strconv.Itoa(runtime.NumCPU()),
		"cpu":          cpuModel(),
		"store_fs":     filesystem(storeDir),
		"flush_policy": flushPolicy,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["commit_modified"] = s.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// filesystem names the file system holding dir by its statfs magic.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostCPU reads the machine-wide CPU time counters of /proc/stat
// (ticks): total, and stolen by the hypervisor for other tenants. A run
// with a high steal share measured the host as much as the program.
func hostCPU() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// cpuSeconds is the CPU time the process has used so far, user plus
// system, summed over its threads. On a virtual machine with
// paravirtual steal accounting (Linux PARAVIRT_TIME_ACCOUNTING) it
// leaves out the time the hypervisor gave the CPU to other guests,
// which wall time of the same work includes.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS sets the process's VmHWM back to its current resident
// size (Linux: writing 5 to /proc/self/clear_refs).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runtimeDelta is Go runtime work between two readings.
type runtimeDelta struct {
	allocBytes float64
	gcCPUSec   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() runtimeDelta {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeDelta{allocBytes: float64(s[0].Value.Uint64()), gcCPUSec: s[1].Value.Float64()}
}

func (d runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	return runtimeDelta{allocBytes: d.allocBytes - o.allocBytes, gcCPUSec: d.gcCPUSec - o.gcCPUSec}
}
