package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

// mean is the arithmetic mean of xs; NaN for an empty sample.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// beyond is how many samples of an n-sample run lie above its p-th
// percentile; a percentile is reported only with at least ten.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// stealJiffies reads the machine's cumulative CPU steal time from
// /proc/stat (0 where unavailable).
func stealJiffies() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			v, _ := strconv.ParseInt(fields[8], 10, 64)
			return v
		}
	}
	return 0
}

// commit names the source revision: git's HEAD where the tree is a
// checkout, otherwise a digest of the Go sources and module files.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// stamp describes the run's environment on one line.
func stamp(root, workload string, seed, steal int64) string {
	return fmt.Sprintf("stamp go=%s gomaxprocs=%d nproc=%d commit=%s workload=%s seed=%d steal_jiffies=%d",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit(root), workload, seed, steal)
}
