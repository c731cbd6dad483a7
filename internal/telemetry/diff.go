package telemetry

import (
	"sort"
	"strconv"
	"strings"
)

// Delta is one ranked difference between two profiles of the same
// shape: a key (a folded stack, a lock name, a metric) whose value
// moved from Old to New. ShareBP is the magnitude of the movement as a
// share of the larger profile's total, in basis points — the unit the
// attribution engine ranks and thresholds on, chosen because it is
// integer-only and therefore bit-stable across hosts.
type Delta struct {
	Key     string `json:"key"`
	Old     int64  `json:"old"`
	New     int64  `json:"new"`
	Delta   int64  `json:"delta"`
	ShareBP int64  `json:"share_bp"`
}

// DiffCounts diffs two key→value maps and returns the movements ranked
// by |delta| descending (ties broken by key), dropping entries whose
// share of the total is below minShareBP. Keys present in only one map
// diff against zero. The result is fully deterministic.
func DiffCounts(old, new map[string]int64, minShareBP int64) []Delta {
	var oldTotal, newTotal int64
	for _, v := range old {
		oldTotal += v
	}
	for _, v := range new {
		newTotal += v
	}
	denom := max(oldTotal, newTotal)

	seen := make(map[string]bool, len(old)+len(new))
	var out []Delta
	add := func(key string) {
		if seen[key] {
			return
		}
		seen[key] = true
		d := Delta{Key: key, Old: old[key], New: new[key]}
		d.Delta = d.New - d.Old
		if d.Delta == 0 {
			return
		}
		if denom > 0 {
			d.ShareBP = abs(d.Delta) * 10000 / denom
		}
		if denom > 0 && d.ShareBP < minShareBP {
			return
		}
		out = append(out, d)
	}
	for key := range old {
		add(key)
	}
	for key := range new {
		add(key)
	}
	sort.Slice(out, func(i, j int) bool {
		if ai, aj := abs(out[i].Delta), abs(out[j].Delta); ai != aj {
			return ai > aj
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// ParseFolded reads a folded-stack profile into a stack→value map.
// Malformed lines (no space-separated trailing integer) are skipped —
// the differ is used on artifacts from older binaries too, and a
// partial diff beats an error there.
func ParseFolded(folded string) map[string]int64 {
	m := make(map[string]int64)
	for _, line := range strings.Split(folded, "\n") {
		line = strings.TrimSpace(line)
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			continue
		}
		m[line[:i]] += v
	}
	return m
}

// LeafTotals folds a stack→value map down to its leaf frames: the
// per-site totals the attribution engine names culprits by.
func LeafTotals(stacks map[string]int64) map[string]int64 {
	m := make(map[string]int64, len(stacks))
	for stack, v := range stacks {
		leaf := stack
		if i := strings.LastIndexByte(stack, ';'); i >= 0 {
			leaf = stack[i+1:]
		}
		m[leaf] += v
	}
	return m
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
