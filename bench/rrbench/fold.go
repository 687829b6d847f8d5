package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"runtime/pprof"
	"strings"
	"time"
)

// fold is a CPU profile summed by layer. self charges each sample to the
// layer of its innermost repository frame (to runtime when it has none);
// incl charges it once to every layer on its stack, and to runtime when
// its leaf frame is outside the repository (Go runtime or standard
// library work, whoever called it).
type fold struct {
	total      time.Duration
	self, incl map[string]time.Duration
}

// profile runs f under the CPU profiler and folds the profile by layer,
// reading it back through `go tool pprof -traces`.
func profile(dir, name string, f func()) (*fold, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	file, err := os.CreateTemp(dir, "rrbench-"+name+"-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(file.Name())
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return nil, err
	}
	f()
	pprof.StopCPUProfile()
	if err := file.Close(); err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", file.Name())
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return parseTraces(bytes.NewReader(out))
}

// parseTraces folds the output of `go tool pprof -traces`: a header, then
// one block per distinct stack, each opened by a dashed separator, its
// first line holding the sample weight and the leaf frame and every later
// line one caller.
func parseTraces(r io.Reader) (*fold, error) {
	f := &fold{self: make(map[string]time.Duration), incl: make(map[string]time.Duration)}
	var (
		weight time.Duration
		frames []string
		inBody bool
	)
	flush := func() {
		if len(frames) > 0 {
			f.add(weight, frames)
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: malformed block head %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: weight in %q: %w", line, err)
			}
			weight = d
			fields = fields[1:]
		}
		frames = append(frames, fields[0]) // drops an "(inline)" marker
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return f, nil
}

// add folds one stack, leaf frame first.
func (f *fold) add(w time.Duration, frames []string) {
	f.total += w
	self := ""
	seen := make(map[string]bool)
	for _, fn := range frames {
		l, ok := layerOf(fn)
		if !ok {
			continue
		}
		if self == "" {
			self = l
		}
		if !seen[l] {
			seen[l] = true
			f.incl[l] += w
		}
	}
	if self == "" {
		self = "runtime"
	}
	f.self[self] += w
	if _, repo := layerOf(frames[0]); !repo {
		f.incl["runtime"] += w
	}
}

// layerOf names the layer of a profiled function: its package's last path
// element for the repository's packages, "realrate" for the root package,
// "gen" and "workload" for the two workload packages, and "bench" for this
// benchmark (package main in its binary, its import path under go test). ok
// is false outside the repository.
func layerOf(fn string) (layer string, ok bool) {
	pkg := packageOf(fn)
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "repro/bench/"):
		return "bench", true
	case pkg == "repro":
		return "realrate", true
	case strings.HasPrefix(pkg, "repro/"):
		return path.Base(pkg), true
	}
	return "", false
}

// packageOf returns the import path of a fully qualified function name
// such as repro/internal/rbs.(*Policy).Pick or repro.(*System).Run.
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}
