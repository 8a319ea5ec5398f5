package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"psgl/internal/centralized"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// pinned holds the centralized oracle's instance counts for every list job
// at the default seed, so that a default-seed run checks its counts without
// running the oracle.
var pinned = map[string]int64{
	oracleKey("diamond", "chunglu:20000:80000:1.8", 1):  2750013,
	oracleKey("house", "chunglu:3000:12000:1.8", 1):     3589508,
	oracleKey("square", "chunglu:50000:250000:2.5", 1):  156408,
	oracleKey("diamond", "chunglu:50000:250000:2.5", 1): 58204,
}

func oracleKey(patternName, spec string, seed int64) string {
	return fmt.Sprintf("%s %s seed %d", patternName, spec, seed)
}

// oracleJob is one count the oracle must supply.
type oracleJob struct {
	Key     string
	Pattern *pattern.Pattern
	Graph   *graph.Graph
}

// oracleCounts returns the centralized oracle's count for every job: pinned
// counts first, then counts cached under dir by an earlier run of the same
// checkout, and the rest computed, two at a time, and cached. The oracle
// counts instances the way the engine does: each subgraph once, under the
// pattern's symmetry-breaking order.
func oracleCounts(jobs []oracleJob, dir string, tr *tracer) (map[string]int64, error) {
	out := map[string]int64{}
	var todo []oracleJob
	for _, j := range jobs {
		if c, ok := pinned[j.Key]; ok {
			out[j.Key] = c
		} else if c, ok := readCached(dir, j.Key); ok {
			out[j.Key] = c
		} else {
			todo = append(todo, j)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, j := range todo {
		wg.Add(1)
		sem <- struct{}{}
		go func(j oracleJob) {
			defer wg.Done()
			defer func() { <-sem }()
			var c int64
			tr.timed("oracle "+j.Key, "oracle", "centralized.CountInstances", 0, func(int) {
				c = centralized.CountInstances(j.Pattern.BreakAutomorphisms(), j.Graph)
			})
			mu.Lock()
			out[j.Key] = c
			mu.Unlock()
		}(j)
	}
	wg.Wait()
	for _, j := range todo {
		if err := writeCached(dir, j.Key, out[j.Key]); err != nil {
			return nil, fmt.Errorf("caching oracle count: %w", err)
		}
	}
	return out, nil
}

func cachePath(dir, key string) string {
	return filepath.Join(dir, "oracle", strings.NewReplacer(" ", "_", ":", "_").Replace(key)+".txt")
}

func readCached(dir, key string) (int64, bool) {
	b, err := os.ReadFile(cachePath(dir, key))
	if err != nil {
		return 0, false
	}
	c, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	return c, err == nil
}

// writeCached stores a count by writing a temporary file and renaming it,
// so that a run killed mid-write leaves no truncated count behind.
func writeCached(dir, key string, c int64) error {
	path := cachePath(dir, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatInt(c, 10)+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
