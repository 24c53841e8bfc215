// Command partstat runs the partition discovery pass on each benchmark
// application and prints the discovered plan: which allocation sites were
// grouped into which partitions, and the observed site connectivity
// graph. This is the inspection tool for the paper's "automatic
// partitioning" step in isolation.
package main

import (
	"flag"
	"fmt"

	"repro/internal/apps"
	"repro/internal/workload"
	"repro/stm"
)

func main() {
	var (
		app = flag.String("app", "all", "application: intset, vacation, bank, genome, kmeans, or all")
		ops = flag.Int("ops", 1000, "profiling operations to run")
	)
	flag.Parse()

	apps := map[string]func(int){
		"intset":    profileIntset,
		"vacation":  profileVacation,
		"bank":      profileBank,
		"genome":    profileGenome,
		"kmeans":    profileKMeans,
		"labyrinth": profileLabyrinth,
	}
	if *app == "all" {
		for _, name := range []string{"intset", "vacation", "bank", "genome", "kmeans", "labyrinth"} {
			apps[name](*ops)
		}
		return
	}
	f, ok := apps[*app]
	if !ok {
		fmt.Printf("unknown app %q (have intset, vacation, bank, genome, kmeans, all)\n", *app)
		return
	}
	f(*ops)
}

func profileIntset(ops int) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 22})
	rt.StartProfiling()
	m := apps.NewMultiSet(rt, apps.DefaultMultiSetSpecs())
	rng := workload.NewRng(1)
	for i := 0; i < ops; i++ {
		m.Op(rng)
	}
	report(rt, "intset-multi")
}

func profileVacation(ops int) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 22})
	rt.StartProfiling()
	v := apps.NewVacation(rt, apps.DefaultVacationConfig())
	rng := workload.NewRng(2)
	for i := 0; i < ops; i++ {
		v.Op(rng)
	}
	report(rt, "vacation")
}

func profileBank(ops int) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 22})
	rt.StartProfiling()
	cfg := apps.DefaultBankConfig()
	b := apps.NewBank(rt, cfg)
	rng := workload.NewRng(3)
	for i := 0; i < ops; i++ {
		b.Op(rng, cfg)
	}
	report(rt, "bank")
}

func profileGenome(ops int) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 22})
	rt.StartProfiling()
	g := apps.NewGenome(rt, apps.DefaultGenomeConfig())
	rng := workload.NewRng(4)
	for i := 0; i < ops; i++ {
		g.Op(rng)
	}
	report(rt, "genome")
}

func profileKMeans(ops int) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 22})
	rt.StartProfiling()
	cfg := apps.DefaultKMeansConfig()
	km := apps.NewKMeans(rt, cfg, 11)
	rng := workload.NewRng(5)
	for i := 0; i < ops; i++ {
		km.Op(rng, cfg)
	}
	report(rt, "kmeans")
}

func profileLabyrinth(ops int) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 22})
	rt.StartProfiling()
	l := apps.NewLabyrinth(rt, apps.DefaultLabyrinthConfig())
	rng := workload.NewRng(6)
	for i := 0; i < ops/10; i++ { // routes are long transactions
		l.Op(rng)
	}
	report(rt, "labyrinth")
}

func report(rt *stm.Runtime, name string) {
	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		fmt.Printf("%s: %v\n", name, err)
		return
	}
	fmt.Printf("=== %s ===\n", name)
	fmt.Print(plan.Describe(rt.Sites()))
	fmt.Println()
}
