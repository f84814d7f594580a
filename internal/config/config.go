// Package config implements the lightweight VO-formation tooling the paper
// lists as future work (§12: "develop flexible configuration tools to
// enable lightweight VO formation"): a small declarative text format
// describing directories, hosts, and registration relationships, and a
// builder that instantiates the topology on a core.Grid.
//
// Format (line-oriented; '#' comments; the values shown are the defaults
// where a key has one):
//
//	seed 42
//
//	directory vo-dir {
//	  suffix vo=alliance
//	  strategy chain            # chain | cache | referral | bloom
//	  cache-ttl 30s             # cache/bloom strategies
//	  accept-vo alliance        # admission policy
//	  parent other-dir          # register upward
//	  vo alliance               # VO named in upward registration
//	  interval 30s              # upward registration
//	  ttl 2m
//	}
//
//	host r1 {
//	  org grid
//	  cpus 4
//	  memory-mb 2048            # 512 per CPU
//	  os linux redhat
//	  register vo-dir           # repeatable
//	  vo alliance
//	  interval 30s
//	  ttl 2m
//	  nws                       # attach a network-weather provider
//	}
//
// Strategy names resolve through the giis strategy table, as the giis
// command's -strategy flag does; sharded needs a ring, which a topology
// cannot describe yet. The defaults are the giis and gris commands' own.
package config

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"mds2/internal/core"
	"mds2/internal/giis"
	"mds2/internal/hostinfo"
	"mds2/internal/nws"
)

// Topology is a parsed grid description.
type Topology struct {
	Seed        int64
	Directories []DirectorySpec
	Hosts       []HostSpec
}

// DirectorySpec describes one GIIS.
type DirectorySpec struct {
	Name     string
	Suffix   string
	Strategy string
	CacheTTL time.Duration
	AcceptVO string
	Parent   string
	VO       string
	Interval time.Duration
	TTL      time.Duration
}

// HostSpec describes one GRIS-fronted host.
type HostSpec struct {
	Name       string
	Org        string
	CPUs       int
	MemoryMB   int
	OS         string
	RegisterTo []string
	VO         string
	Interval   time.Duration
	TTL        time.Duration
	NWS        bool
	Seed       int64
}

// Parse reads a topology description.
func Parse(r io.Reader) (*Topology, error) {
	top := &Topology{Seed: 1}
	sc := bufio.NewScanner(r)
	lineNo := 0
	var block *blockState
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case block == nil && fields[0] == "seed" && len(fields) == 2:
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("config: line %d: bad seed: %v", lineNo, err)
			}
			top.Seed = v
		case block == nil && (fields[0] == "directory" || fields[0] == "host"):
			if len(fields) != 3 || fields[2] != "{" {
				return nil, fmt.Errorf("config: line %d: expected %q NAME {", lineNo, fields[0])
			}
			block = &blockState{kind: fields[0], name: fields[1], props: map[string][]string{}}
		case block != nil && line == "}":
			if err := top.finish(block, lineNo); err != nil {
				return nil, err
			}
			block = nil
		case block != nil:
			key := fields[0]
			block.props[key] = append(block.props[key], strings.TrimSpace(strings.TrimPrefix(line, key)))
		default:
			return nil, fmt.Errorf("config: line %d: unexpected %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if block != nil {
		return nil, fmt.Errorf("config: unterminated %s block %q", block.kind, block.name)
	}
	return top, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Topology, error) { return Parse(strings.NewReader(s)) }

type blockState struct {
	kind  string
	name  string
	props map[string][]string
}

func (b *blockState) one(key, def string) string {
	if vs := b.props[key]; len(vs) > 0 {
		return vs[len(vs)-1]
	}
	return def
}

func (b *blockState) duration(key string, def time.Duration) (time.Duration, error) {
	s := b.one(key, "")
	if s == "" {
		return def, nil
	}
	return time.ParseDuration(s)
}

func (b *blockState) intVal(key string, def int) (int, error) {
	s := b.one(key, "")
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func (t *Topology) finish(b *blockState, lineNo int) error {
	switch b.kind {
	case "directory":
		d := DirectorySpec{
			Name:     b.name,
			Suffix:   b.one("suffix", ""),
			Strategy: b.one("strategy", "chain"),
			AcceptVO: b.one("accept-vo", ""),
			Parent:   b.one("parent", ""),
			VO:       b.one("vo", ""),
		}
		if d.Suffix == "" {
			return fmt.Errorf("config: line %d: directory %q needs a suffix", lineNo, b.name)
		}
		var err error
		if d.CacheTTL, err = b.duration("cache-ttl", giis.DefaultCacheTTL); err != nil {
			return fmt.Errorf("config: directory %q: %v", b.name, err)
		}
		if d.Interval, err = b.duration("interval", core.DefaultInterval); err != nil {
			return err
		}
		if d.TTL, err = b.duration("ttl", core.DefaultTTL); err != nil {
			return err
		}
		if _, err := d.strategy(); err != nil {
			return fmt.Errorf("config: directory %q: %v", b.name, err)
		}
		t.Directories = append(t.Directories, d)
	case "host":
		h := HostSpec{
			Name:       b.name,
			Org:        b.one("org", "grid"),
			OS:         b.one("os", "linux redhat"),
			RegisterTo: b.props["register"],
			VO:         b.one("vo", ""),
			NWS:        len(b.props["nws"]) > 0 || b.one("nws", "") != "",
		}
		var err error
		if h.CPUs, err = b.intVal("cpus", 4); err != nil {
			return fmt.Errorf("config: host %q: %v", b.name, err)
		}
		if h.MemoryMB, err = b.intVal("memory-mb", core.MemoryMBPerCPU*h.CPUs); err != nil {
			return err
		}
		if h.Interval, err = b.duration("interval", core.DefaultInterval); err != nil {
			return err
		}
		if h.TTL, err = b.duration("ttl", core.DefaultTTL); err != nil {
			return err
		}
		if seedStr := b.one("seed", ""); seedStr != "" {
			if h.Seed, err = strconv.ParseInt(seedStr, 10, 64); err != nil {
				return fmt.Errorf("config: host %q: bad seed: %v", b.name, err)
			}
		}
		t.Hosts = append(t.Hosts, h)
	default:
		return fmt.Errorf("config: unknown block kind %q", b.kind)
	}
	return nil
}

// strategy builds the directory's search strategy from the giis table.
func (d DirectorySpec) strategy() (*giis.Strategy, error) {
	return giis.NewStrategy(d.Strategy, giis.StrategyConfig{CacheTTL: d.CacheTTL})
}

// Validate checks cross references before building.
func (t *Topology) Validate() error {
	dirs := map[string]bool{}
	for _, d := range t.Directories {
		if dirs[d.Name] {
			return fmt.Errorf("config: duplicate directory %q", d.Name)
		}
		dirs[d.Name] = true
	}
	for _, d := range t.Directories {
		if d.Parent != "" && !dirs[d.Parent] {
			return fmt.Errorf("config: directory %q: unknown parent %q", d.Name, d.Parent)
		}
		if d.Parent == d.Name {
			return fmt.Errorf("config: directory %q registers with itself", d.Name)
		}
	}
	hosts := map[string]bool{}
	for _, h := range t.Hosts {
		if hosts[h.Name] {
			return fmt.Errorf("config: duplicate host %q", h.Name)
		}
		hosts[h.Name] = true
		if dirs[h.Name] {
			return fmt.Errorf("config: name %q used for both host and directory", h.Name)
		}
		for _, target := range h.RegisterTo {
			if !dirs[target] {
				return fmt.Errorf("config: host %q: unknown directory %q", h.Name, target)
			}
		}
	}
	return nil
}

// Built is an instantiated topology.
type Built struct {
	Grid        *core.Grid
	Directories map[string]*core.DirectoryNode
	Hosts       map[string]*core.HostNode
	// Weather is the shared NWS service when any host enables nws.
	Weather *nws.Service
}

// Build instantiates the topology on a fresh simulated grid.
func (t *Topology) Build() (*Built, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	g, err := core.NewSimGrid(t.Seed)
	if err != nil {
		return nil, err
	}
	built := &Built{Grid: g, Directories: map[string]*core.DirectoryNode{},
		Hosts: map[string]*core.HostNode{}}
	fail := func(err error) (*Built, error) {
		g.Close()
		return nil, err
	}
	for _, d := range t.Directories {
		strategy, err := d.strategy()
		if err != nil {
			return fail(fmt.Errorf("config: directory %q: %w", d.Name, err))
		}
		node, err := g.AddDirectory(d.Name, core.DirectoryOptions{
			Suffix: d.Suffix, Strategy: strategy, AcceptVO: d.AcceptVO})
		if err != nil {
			return fail(fmt.Errorf("config: directory %q: %w", d.Name, err))
		}
		built.Directories[d.Name] = node
	}
	// Wire the hierarchy after all directories exist.
	for _, d := range t.Directories {
		if d.Parent == "" {
			continue
		}
		built.Directories[d.Name].RegisterWith(built.Directories[d.Parent], d.VO, d.Interval, d.TTL)
	}
	for i, h := range t.Hosts {
		opts := core.HostOptions{
			Org: h.Org,
			Spec: hostinfo.Spec{OS: h.OS, OSVer: "1.0", CPUType: "ia32",
				CPUCount: h.CPUs, MemoryMB: h.MemoryMB},
			Seed: h.Seed,
		}
		if opts.Seed == 0 {
			opts.Seed = t.Seed + int64(i) + 1
		}
		if h.NWS {
			if built.Weather == nil {
				built.Weather = nws.NewService()
			}
			opts.WithNWS = built.Weather
		}
		node, err := g.AddHost(h.Name, opts)
		if err != nil {
			return fail(fmt.Errorf("config: host %q: %w", h.Name, err))
		}
		built.Hosts[h.Name] = node
		for _, target := range h.RegisterTo {
			node.RegisterWith(built.Directories[target], h.VO, h.Interval, h.TTL)
		}
	}
	return built, nil
}
