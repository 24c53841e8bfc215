package partition

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/memory"
)

// SavedPlan is the serialized form of a Plan plus its per-partition
// configurations, keyed by site NAME so it survives process restarts
// (site ids are assigned in registration order, which may differ between
// runs). Saving a tuned topology and reloading it at the next start
// extends the paper's hybrid story: discovery and tuning results move
// across runs the way its compile-time partitioning does, and the runtime
// tuner then only has to track drift, not rediscover the configuration.
type SavedPlan struct {
	// Version guards the format.
	Version int `json:"version"`
	// Partitions holds the named groups (the global partition, id 0, is
	// implicit and holds every site not listed).
	Partitions []SavedPartition `json:"partitions"`
}

// SavedPartition is one partition of a SavedPlan.
type SavedPartition struct {
	Name  string      `json:"name"`
	Sites []string    `json:"sites"`
	Cfg   SavedConfig `json:"config"`
}

// SavedConfig is the serialized PartConfig (enums as strings, so the
// JSON is reviewable and hand-editable).
type SavedConfig struct {
	Read      string `json:"read"`
	Acquire   string `json:"acquire"`
	Write     string `json:"write"`
	LockBits  uint   `json:"lockBits"`
	GranShift uint   `json:"granShift"`
	CM        string `json:"cm"`
	ReaderCM  string `json:"readerCM"`
	HistCap   uint   `json:"histCap,omitempty"`
}

// savedPlanVersion is the current format version.
const savedPlanVersion = 1

func configToSaved(c core.PartConfig) SavedConfig {
	return SavedConfig{
		Read:      c.Read.String(),
		Acquire:   c.Acquire.String(),
		Write:     c.Write.String(),
		LockBits:  c.LockBits,
		GranShift: c.GranShift,
		CM:        c.CM.String(),
		ReaderCM:  c.ReaderCM.String(),
		HistCap:   c.HistCap,
	}
}

func savedToConfig(s SavedConfig) (core.PartConfig, error) {
	c := core.DefaultPartConfig()
	switch s.Read {
	case "invisible", "":
		c.Read = core.InvisibleReads
	case "visible":
		c.Read = core.VisibleReads
	default:
		return c, fmt.Errorf("partition: unknown read mode %q", s.Read)
	}
	switch s.Acquire {
	case "encounter", "":
		c.Acquire = core.EncounterTime
	case "commit":
		c.Acquire = core.CommitTime
	default:
		return c, fmt.Errorf("partition: unknown acquire mode %q", s.Acquire)
	}
	switch s.Write {
	case "write-back", "":
		c.Write = core.WriteBack
	case "write-through":
		c.Write = core.WriteThrough
	default:
		return c, fmt.Errorf("partition: unknown write mode %q", s.Write)
	}
	switch s.CM {
	case "suicide":
		c.CM = core.CMSuicide
	case "spin", "":
		c.CM = core.CMSpin
	case "karma":
		c.CM = core.CMKarma
	case "aggressive":
		c.CM = core.CMAggressive
	case "backoff":
		c.CM = core.CMBackoff
	case "timestamp":
		c.CM = core.CMTimestamp
	default:
		return c, fmt.Errorf("partition: unknown CM policy %q", s.CM)
	}
	switch s.ReaderCM {
	case "writer-kills", "":
		c.ReaderCM = core.WriterKillsReaders
	case "writer-yields":
		c.ReaderCM = core.WriterYieldsToReaders
	default:
		return c, fmt.Errorf("partition: unknown reader policy %q", s.ReaderCM)
	}
	if s.LockBits != 0 {
		c.LockBits = s.LockBits
	}
	c.GranShift = s.GranShift
	c.HistCap = s.HistCap
	return c.Normalize(), nil
}

// Save serializes the plan (with configs) as indented JSON. Pass the
// engine's CURRENT configurations (e.g. after a tuning run) to persist
// what the tuner learned rather than the plan's initial configs.
func (p *Plan) Save(w io.Writer, sites *memory.Sites, configs []core.PartConfig) error {
	if configs == nil {
		configs = p.Configs
	}
	if len(configs) != len(p.Names) {
		return fmt.Errorf("partition: %d configs for %d partitions", len(configs), len(p.Names))
	}
	sp := SavedPlan{Version: savedPlanVersion}
	for id := 1; id < len(p.Names); id++ { // global partition implicit
		names := make([]string, 0, len(p.Groups[id]))
		for _, s := range p.Groups[id] {
			names = append(names, sites.Name(s))
		}
		sort.Strings(names)
		sp.Partitions = append(sp.Partitions, SavedPartition{
			Name:  p.Names[id],
			Sites: names,
			Cfg:   configToSaved(configs[id]),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sp)
}

// LoadPlan parses a SavedPlan and rebinds it to the current site table.
// Every saved site must already be registered (register sites at setup,
// before loading); unknown sites are an error so that a stale plan fails
// loudly instead of silently mis-partitioning.
func LoadPlan(r io.Reader, sites *memory.Sites, defaultCfg core.PartConfig) (*Plan, error) {
	var sp SavedPlan
	dec := json.NewDecoder(r)
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("partition: parsing saved plan: %w", err)
	}
	if sp.Version != savedPlanVersion {
		return nil, fmt.Errorf("partition: saved plan version %d, want %d", sp.Version, savedPlanVersion)
	}
	p := &Plan{
		SitePart: make([]core.PartID, sites.Count()),
		Names:    []string{"global"},
		Groups:   [][]memory.SiteID{nil},
		Configs:  []core.PartConfig{defaultCfg},
	}
	for _, part := range sp.Partitions {
		cfg, err := savedToConfig(part.Cfg)
		if err != nil {
			return nil, fmt.Errorf("partition %q: %w", part.Name, err)
		}
		id := core.PartID(len(p.Names))
		var members []memory.SiteID
		for _, sn := range part.Sites {
			sid, ok := sites.Lookup(sn)
			if !ok {
				return nil, fmt.Errorf("partition: saved plan references unregistered site %q", sn)
			}
			if p.SitePart[sid] != 0 {
				return nil, fmt.Errorf("partition: site %q appears in two saved partitions", sn)
			}
			p.SitePart[sid] = id
			members = append(members, sid)
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		p.Names = append(p.Names, part.Name)
		p.Groups = append(p.Groups, members)
		p.Configs = append(p.Configs, cfg)
	}
	return p, nil
}
