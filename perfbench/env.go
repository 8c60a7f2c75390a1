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
)

// environment is recorded with every result: throughput and fsync cost
// are only comparable between runs that agree on it.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	// Commit is the git HEAD when the checkout is a repository, else a
	// digest of the Go sources and go.mod files ("src:<hex>").
	Commit string `json:"commit"`
	// SpoolFS names the filesystem that holds the spool and manifests.
	SpoolFS string `json:"spool_fs"`
}

func recordEnv(root, spoolDir string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
		SpoolFS:    filesystemOf(spoolDir),
	}
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

func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "src:" + sourceDigest(root)
}

// sourceDigest hashes every .go, go.mod and go.sum file under root (the
// build directory excluded) in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// filesystemOf names the filesystem holding dir: the mount point, its
// type and its source, from /proc/self/mountinfo (the longest mount
// point that prefixes dir wins), falling back to the statfs magic.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	best, desc := "", ""
	if f, err := os.Open("/proc/self/mountinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			// id parent maj:min root mountpoint opts ... - fstype source superopts
			pre, post, ok := strings.Cut(sc.Text(), " - ")
			fields, tail := strings.Fields(pre), strings.Fields(post)
			if !ok || len(fields) < 5 || len(tail) < 2 {
				continue
			}
			mp := fields[4]
			if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
				best, desc = mp, tail[0]+" "+tail[1]+" on "+mp
			}
		}
		f.Close()
	}
	if desc != "" {
		return desc
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(abs, &st); err == nil {
		return "statfs-magic-0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
	return "unknown"
}
