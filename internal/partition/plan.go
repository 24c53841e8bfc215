package partition

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/memory"
)

// Plan is a frozen site→partition assignment plus partition metadata,
// ready to install into an engine. Partition 0 is always the global
// partition; discovered groups occupy ids 1..N.
type Plan struct {
	// SitePart[s] is the partition of site s.
	SitePart []core.PartID
	// Names[p] is the partition's display name (derived from the common
	// prefix of its member sites).
	Names []string
	// Groups[p] lists the member sites of partition p (Groups[0] holds
	// whatever fell through to the global partition).
	Groups [][]memory.SiteID
	// Configs[p] is the configuration the partition starts with.
	Configs []core.PartConfig
}

// BuildPlan freezes the analyzer's current grouping over all registered
// sites. Every connected component becomes a partition (singleton sites —
// structures whose nodes only link among themselves or that were never
// linked — become singleton partitions, matching the paper's behaviour of
// treating each discovered data structure independently). defaultCfg is
// the initial configuration of every partition; the tuner specializes
// them at runtime.
func BuildPlan(a *Analyzer, sites *memory.Sites, defaultCfg core.PartConfig) *Plan {
	n := sites.Count()
	p := &Plan{
		SitePart: make([]core.PartID, n),
		Names:    []string{"global"},
		Groups:   [][]memory.SiteID{nil},
		Configs:  []core.PartConfig{defaultCfg},
	}
	used := map[string]int{"global": 1}
	for _, g := range a.groups(n) {
		id := core.PartID(len(p.Names))
		for _, s := range g {
			p.SitePart[s] = id
		}
		name := groupName(sites, g)
		used[name]++
		if c := used[name]; c > 1 {
			name = fmt.Sprintf("%s#%d", name, c)
		}
		p.Names = append(p.Names, name)
		p.Groups = append(p.Groups, g)
		p.Configs = append(p.Configs, defaultCfg)
	}
	return p
}

// ManualPlan builds a plan from explicit site-name groups; used by tests,
// by benchmarks that want a known partitioning, and as the escape hatch
// the paper gives programmers who know better than the analysis.
func ManualPlan(sites *memory.Sites, defaultCfg core.PartConfig, groups map[string][]string) (*Plan, error) {
	p := &Plan{
		SitePart: make([]core.PartID, sites.Count()),
		Names:    []string{"global"},
		Groups:   [][]memory.SiteID{nil},
		Configs:  []core.PartConfig{defaultCfg},
	}
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		id := core.PartID(len(p.Names))
		var members []memory.SiteID
		for _, sn := range groups[name] {
			sid, ok := sites.Lookup(sn)
			if !ok {
				return nil, fmt.Errorf("partition: unknown site %q in group %q", sn, name)
			}
			if p.SitePart[sid] != 0 {
				return nil, fmt.Errorf("partition: site %q assigned to two groups", sn)
			}
			p.SitePart[sid] = id
			members = append(members, sid)
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		p.Names = append(p.Names, name)
		p.Groups = append(p.Groups, members)
		p.Configs = append(p.Configs, defaultCfg)
	}
	return p, nil
}

// NumPartitions returns the number of partitions in the plan (including
// the global partition).
func (p *Plan) NumPartitions() int { return len(p.Names) }

// SetConfig overrides the starting configuration of partition id.
func (p *Plan) SetConfig(id core.PartID, cfg core.PartConfig) error {
	if int(id) >= len(p.Configs) {
		return fmt.Errorf("partition: no partition %d in plan", id)
	}
	p.Configs[id] = cfg
	return nil
}

// PartitionOfSite returns the partition a site is assigned to.
func (p *Plan) PartitionOfSite(s memory.SiteID) core.PartID {
	if int(s) < len(p.SitePart) {
		return p.SitePart[s]
	}
	return core.GlobalPartition
}

// Install freezes the plan into the engine (under quiescence).
func (p *Plan) Install(e *core.Engine) error {
	return e.InstallPlan(p.SitePart, p.Names, p.Configs)
}

// Describe renders the plan as a human-readable multi-line string.
func (p *Plan) Describe(sites *memory.Sites) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d partitions\n", p.NumPartitions())
	for i, name := range p.Names {
		fmt.Fprintf(&b, "  [%d] %-24s", i, name)
		if i == 0 {
			fmt.Fprintf(&b, " (default)")
		}
		var members []string
		for _, s := range p.Groups[i] {
			members = append(members, sites.Name(s))
		}
		if len(members) > 0 {
			fmt.Fprintf(&b, " sites: %s", strings.Join(members, ", "))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// groupName derives a partition name from its member sites: the longest
// common dot-separated prefix, or the first member's name plus a count.
func groupName(sites *memory.Sites, g []memory.SiteID) string {
	if len(g) == 0 {
		return "empty"
	}
	names := make([]string, len(g))
	for i, s := range g {
		names[i] = sites.Name(s)
	}
	if len(names) == 1 {
		return names[0]
	}
	prefix := commonDotPrefix(names)
	if prefix != "" {
		return prefix
	}
	return fmt.Sprintf("%s+%d", names[0], len(names)-1)
}

func commonDotPrefix(names []string) string {
	parts := strings.Split(names[0], ".")
	k := len(parts)
	for _, n := range names[1:] {
		p := strings.Split(n, ".")
		if len(p) < k {
			k = len(p)
		}
		for i := 0; i < k; i++ {
			if p[i] != parts[i] {
				k = i
				break
			}
		}
	}
	if k == 0 {
		return ""
	}
	// Don't use the full name of one member as the group name when members
	// differ only in the last component; that is exactly what we want, so
	// keep up to k components.
	return strings.Join(parts[:k], ".")
}
