package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/memory"
)

func TestUnionFindBasics(t *testing.T) {
	u := newUnionFind(4)
	if u.sameSet(0, 1) {
		t.Fatal("fresh elements connected")
	}
	if !u.union(0, 1) {
		t.Fatal("union of distinct sets returned false")
	}
	if u.union(0, 1) {
		t.Fatal("repeat union returned true")
	}
	u.union(2, 3)
	if u.sameSet(0, 2) {
		t.Fatal("0 and 2 merged unexpectedly")
	}
	u.union(1, 3)
	if !u.sameSet(0, 2) {
		t.Fatal("transitive merge failed")
	}
	// Growth on demand.
	u.find(100)
	if u.size() < 101 {
		t.Fatalf("size = %d", u.size())
	}
}

func TestUnionFindProperties(t *testing.T) {
	// Properties: reflexive, symmetric, transitive under random unions.
	u := newUnionFind(64)
	f := func(a, b, c uint8) bool {
		x, y, z := uint32(a%64), uint32(b%64), uint32(c%64)
		u.union(x, y)
		if !u.sameSet(x, y) {
			return false
		}
		if u.sameSet(x, z) != u.sameSet(z, x) {
			return false
		}
		if u.sameSet(x, y) && u.sameSet(y, z) && !u.sameSet(x, z) {
			return false
		}
		return u.sameSet(x, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzerGrouping(t *testing.T) {
	a := NewAnalyzer()
	// Sites: 1,2 linked (one structure); 3 isolated-but-self-linked; 4,5
	// linked; 6 never seen.
	a.RecordPointer(1, 2)
	a.RecordPointer(2, 1)
	a.RecordPointer(3, 3)
	a.RecordPointer(4, 5)
	g := a.groups(7)
	want := [][]memory.SiteID{{1, 2}, {3}, {4, 5}, {6}}
	if len(g) != len(want) {
		t.Fatalf("groups = %v, want %v", g, want)
	}
	for i := range g {
		if len(g[i]) != len(want[i]) {
			t.Fatalf("group %d = %v, want %v", i, g[i], want[i])
		}
		for j := range g[i] {
			if g[i][j] != want[i][j] {
				t.Fatalf("group %d = %v, want %v", i, g[i], want[i])
			}
		}
	}
	if !a.Connected(1, 2) || a.Connected(1, 3) {
		t.Fatal("Connected() disagrees with groups")
	}
	if a.EdgeCount() != 3 { // (1,2), (3,3), (4,5)
		t.Fatalf("EdgeCount = %d", a.EdgeCount())
	}
	edges := a.Edges()
	if len(edges) != 3 || edges[0].From != 1 || edges[0].To != 2 || edges[0].Count != 2 {
		t.Fatalf("Edges = %+v", edges)
	}
}

func newSites(t *testing.T, names ...string) *memory.Sites {
	t.Helper()
	arena := memory.MustNewArena(memory.Config{CapacityWords: 1 << 12, BlockShift: 8})
	s := arena.Sites()
	for _, n := range names {
		s.Register(n)
	}
	return s
}

func TestBuildPlan(t *testing.T) {
	sites := newSites(t, "app.list.node", "app.list.head", "app.tree.node", "app.tree.root")
	list1, _ := sites.Lookup("app.list.node")
	list2, _ := sites.Lookup("app.list.head")
	tree1, _ := sites.Lookup("app.tree.node")
	tree2, _ := sites.Lookup("app.tree.root")

	a := NewAnalyzer()
	a.RecordPointer(list2, list1) // head -> node
	a.RecordPointer(list1, list1) // node -> node
	a.RecordPointer(tree2, tree1)
	a.RecordPointer(tree1, tree1)

	p := BuildPlan(a, sites, core.DefaultPartConfig())
	if p.NumPartitions() != 3 { // global + list + tree
		t.Fatalf("NumPartitions = %d; plan:\n%s", p.NumPartitions(), p.Describe(sites))
	}
	if p.PartitionOfSite(list1) != p.PartitionOfSite(list2) {
		t.Fatal("list sites split across partitions")
	}
	if p.PartitionOfSite(list1) == p.PartitionOfSite(tree1) {
		t.Fatal("list and tree merged")
	}
	if p.PartitionOfSite(memory.DefaultSite) != core.GlobalPartition {
		t.Fatal("default site not in global partition")
	}
	// Group names use the common dot prefix.
	listPart := p.PartitionOfSite(list1)
	if got := p.Names[listPart]; got != "app.list" {
		t.Fatalf("list partition name = %q, want app.list", got)
	}
	if p.Describe(sites) == "" {
		t.Fatal("empty describe")
	}
}

func TestPlanInstallAndRun(t *testing.T) {
	arena := memory.MustNewArena(memory.Config{CapacityWords: 1 << 16, BlockShift: 8})
	sL := arena.Sites().Register("t.list")
	sT := arena.Sites().Register("t.tree")
	e := core.NewEngine(arena, core.DefaultPartConfig())

	// Profile: link each structure internally.
	an := NewAnalyzer()
	e.SetProfiler(an, true)
	th := e.BorrowThread()
	var headL, headT memory.Addr
	th.Run(func(tx *core.Tx) error {
		headL = tx.Alloc(sL, 2)
		n := tx.Alloc(sL, 2)
		tx.StoreAddr(headL, n)
		headT = tx.Alloc(sT, 2)
		m := tx.Alloc(sT, 2)
		tx.StoreAddr(headT, m)
		return nil
	})
	e.SetProfiler(nil, false)

	p := BuildPlan(an, arena.Sites(), core.DefaultPartConfig())
	if p.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d", p.NumPartitions())
	}
	visCfg := core.DefaultPartConfig()
	visCfg.Read = core.VisibleReads
	if err := p.SetConfig(p.PartitionOfSite(sT), visCfg); err != nil {
		t.Fatal(err)
	}
	if err := p.Install(e); err != nil {
		t.Fatal(err)
	}
	if got := e.PartitionOfAddr(headL).Name(); got != "t.list" {
		t.Fatalf("headL partition = %q", got)
	}
	if got := e.PartitionOfAddr(headT).Config().Read; got != core.VisibleReads {
		t.Fatalf("tree partition read mode = %v", got)
	}
	// Transactions still work after the install.
	th.Run(func(tx *core.Tx) error {
		tx.Store(headL+1, 42)
		tx.Store(headT+1, 43)
		return nil
	})
	th.Run(func(tx *core.Tx) error {
		if tx.Load(headL+1) != 42 || tx.Load(headT+1) != 43 {
			t.Error("values lost across plan install")
		}
		return nil
	})
}

func TestManualPlan(t *testing.T) {
	sites := newSites(t, "m.a", "m.b", "m.c")
	p, err := ManualPlan(sites, core.DefaultPartConfig(), map[string][]string{
		"ab": {"m.a", "m.b"},
		"c":  {"m.c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d", p.NumPartitions())
	}
	sa, _ := sites.Lookup("m.a")
	sb, _ := sites.Lookup("m.b")
	sc, _ := sites.Lookup("m.c")
	if p.PartitionOfSite(sa) != p.PartitionOfSite(sb) || p.PartitionOfSite(sa) == p.PartitionOfSite(sc) {
		t.Fatal("manual grouping wrong")
	}
	if _, err := ManualPlan(sites, core.DefaultPartConfig(), map[string][]string{"x": {"missing"}}); err == nil {
		t.Fatal("unknown site accepted")
	}
	if _, err := ManualPlan(sites, core.DefaultPartConfig(), map[string][]string{"x": {"m.a"}, "y": {"m.a"}}); err == nil {
		t.Fatal("duplicate site accepted")
	}
	if err := p.SetConfig(7, core.DefaultPartConfig()); err == nil {
		t.Fatal("SetConfig out of range accepted")
	}
}

func TestCommonDotPrefix(t *testing.T) {
	cases := []struct {
		in   []string
		want string
	}{
		{[]string{"a.b.c", "a.b.d"}, "a.b"},
		{[]string{"a.b", "a.b"}, "a.b"},
		{[]string{"x", "y"}, ""},
		{[]string{"app.t.n", "app.t.r", "app.t.x"}, "app.t"},
	}
	for _, c := range cases {
		if got := commonDotPrefix(c.in); got != c.want {
			t.Errorf("commonDotPrefix(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
