package main

import (
	"bufio"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"strings"
)

// hostInfo are the host and build facts recorded with every result.
type hostInfo struct {
	NumCPU, GOMAXPROCS, PhysicalCores int
	CPUModel, GoVersion, Revision     string
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU:     goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion:  goruntime.Version(),
		Revision:   "unknown (not built from a VCS checkout)",
	}
	h.CPUModel, h.PhysicalCores = cpuInfo()
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Revision = rev
			if modified == "true" {
				h.Revision += "+modified"
			}
		}
	}
	return h
}

// cpuInfo reads the CPU model and counts distinct (physical id, core id)
// pairs in /proc/cpuinfo; 0 cores means the count is unknown.
func cpuInfo() (model string, cores int) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown", 0
	}
	defer f.Close()
	seen := map[string]bool{}
	var phys, core string
	flush := func() {
		if core != "" {
			seen[phys+"/"+core] = true
		}
		phys, core = "", ""
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "model name":
			if model == "" {
				model = v
			}
		case "physical id":
			phys = v
		case "core id":
			core = v
		}
	}
	flush()
	if model == "" {
		model = "unknown"
	}
	return model, len(seen)
}

func (h hostInfo) String() string {
	s := fmt.Sprintf("host: %s, NumCPU=%d, GOMAXPROCS=%d, physical cores=%d, %s, revision %s",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.PhysicalCores, h.GoVersion, h.Revision)
	if h.PhysicalCores > 0 && h.GOMAXPROCS > h.PhysicalCores {
		s += "\nWARNING: GOMAXPROCS exceeds the physical cores; parallel timings share cores"
	}
	return s
}
