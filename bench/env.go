package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// envBlock is the machine a result was measured on. Every run prints
// it, and warns where it differs from the reference recorded in
// bench/env.json, because numbers from different machines, core
// counts or filesystems do not compare.
type envBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Revision   string `json:"revision,omitempty"`
	TmpFS      string `json:"tmpfs"`
}

// readEnv describes this machine; work is the directory the run's
// files go to.
func readEnv(root, work string) envBlock {
	return envBlock{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Revision:   gitRevision(root),
		TmpFS:      fsType(work),
	}
}

func (e envBlock) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s revision=%s tmpfs=%s",
		e.NProc, e.GOMAXPROCS, e.CPU, e.Go, e.Revision, e.TmpFS)
}

// mismatches lists the fields of e that differ from ref. The revision
// is expected to differ and is not compared.
func (e envBlock) mismatches(ref envBlock) []string {
	var out []string
	add := func(name string, have, want any) {
		if have != want {
			out = append(out, fmt.Sprintf("%s is %v, reference %v", name, have, want))
		}
	}
	add("nproc", e.NProc, ref.NProc)
	add("gomaxprocs", e.GOMAXPROCS, ref.GOMAXPROCS)
	add("cpu", e.CPU, ref.CPU)
	add("go", e.Go, ref.Go)
	add("tmpfs", e.TmpFS, ref.TmpFS)
	return out
}

// loadRefEnv reads the reference environment bench/env.json.
func loadRefEnv(root string) (envBlock, error) {
	var ref envBlock
	body, err := os.ReadFile(filepath.Join(root, "bench", "env.json"))
	if err != nil {
		return ref, err
	}
	return ref, json.Unmarshal(body, &ref)
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

// gitRevision is the checkout's commit, or "unknown" outside a git
// working tree (benchmark checkouts usually are not one).
func gitRevision(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x794c7630: "overlayfs",
		0x01021994: "tmpfs",
		0xef53:     "ext4",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
