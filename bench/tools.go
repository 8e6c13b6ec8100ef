package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// buildTimeout bounds building the tools: the first build in a fresh
// checkout compiles the standard library too.
const buildTimeout = 15 * time.Minute

// buildTools builds the named commands under root/cmd into dir and
// returns each one's path. Build time is not part of any metric.
func buildTools(ctx context.Context, root, dir string, names ...string) (map[string]string, error) {
	paths := make(map[string]string, len(names))
	if len(names) == 0 {
		return paths, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, buildTimeout)
	defer cancel()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
		paths[n] = filepath.Join(dir, n)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build %v: %v\n%s", names, err, out)
	}
	return paths, nil
}

// procStat is one finished child process.
type procStat struct {
	wall  float64 // seconds from start to exit
	cpu   float64 // user+system seconds
	rssMB float64 // peak resident set
	out   string  // standard output
}

// toolTimeout bounds one command run.
const toolTimeout = 120 * time.Second

// exec runs bin with args to completion. A non-zero exit is an error
// carrying the tail of standard error.
func (r *run) exec(bin string, args ...string) (procStat, error) {
	ctx, cancel := context.WithTimeout(r.ctx, toolTimeout)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = r.work
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	ps := procStat{wall: time.Since(start).Seconds(), out: stdout.String()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			ps.cpu, ps.rssMB = cpuSeconds(ru), maxrssMB(ru)
		}
	}
	if err != nil {
		return ps, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLines(stderr.String(), 3))
	}
	return ps, nil
}

// lastLines is the final n lines of s.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
