package main

import "fmt"

// pinned holds every figs cell's counters (EMisses, ERefs, Cycles,
// Instrs, Dispatch) for the default workload seed, in apps x policies
// order. A change that legitimately alters the simulation re-pins them
// with --pin; any other change must reproduce them exactly.
var pinned = map[string][]counters{
	"figs-private": {
		{45467, 67571, 526645, 1702149, 736},      // tasks.FCFS
		{11185, 38986, 367836, 1703353, 735},      // tasks.LFF
		{12878, 37314, 369221, 1703643, 735},      // tasks.CRT
		{13862, 187980, 589384, 574328, 388},      // merge.FCFS
		{13723, 185411, 684794, 575503, 438},      // merge.LFF
		{13723, 185411, 684794, 575503, 438},      // merge.CRT
		{18024, 168720, 1024475, 892606, 1972},    // photo.FCFS
		{16905, 204909, 1079344, 947698, 2013},    // photo.LFF
		{17035, 205075, 1090940, 949209, 2054},    // photo.CRT
		{193159, 3711372, 4478734, 16619700, 583}, // tsp.FCFS
		{153549, 3710492, 4223106, 16622176, 621}, // tsp.LFF
		{169232, 3712376, 4370352, 16623149, 721}, // tsp.CRT
	},
	"figs-shared": {
		{12391, 67651, 344143, 1702175, 734},      // tasks.FCFS
		{12157, 41158, 356728, 1703329, 737},      // tasks.LFF
		{12532, 35917, 354942, 1703427, 735},      // tasks.CRT
		{12157, 41085, 356663, 1703329, 737},      // tasks.LFF-SH
		{12532, 35917, 354942, 1703427, 735},      // tasks.CRT-SH
		{2807, 187881, 353586, 574306, 387},       // merge.FCFS
		{3057, 188934, 356934, 575137, 395},       // merge.LFF
		{3057, 188934, 356934, 575137, 395},       // merge.CRT
		{3057, 188934, 356934, 575137, 395},       // merge.LFF-SH
		{3057, 188934, 356934, 575137, 395},       // merge.CRT-SH
		{3420, 170389, 627366, 891594, 1644},      // photo.FCFS
		{3562, 197162, 667718, 924360, 1738},      // photo.LFF
		{3562, 195094, 670670, 923216, 1697},      // photo.CRT
		{3562, 193559, 662153, 921164, 1658},      // photo.LFF-SH
		{3562, 191964, 665789, 922094, 1711},      // photo.CRT-SH
		{298094, 3722335, 4959750, 16619654, 567}, // tsp.FCFS
		{284081, 3724748, 4935009, 16621137, 470}, // tsp.LFF
		{284803, 3725742, 4959484, 16620938, 461}, // tsp.CRT
		{272123, 3726099, 4819543, 16621152, 468}, // tsp.LFF-SH
		{312140, 3726034, 5117931, 16621256, 494}, // tsp.CRT-SH
	},
}

// printPins runs both figs grids on the default seed and prints pinned
// as Go source.
func printPins() int {
	fmt.Println("var pinned = map[string][]counters{")
	for _, g := range []grid{privateGrid, sharedGrid} {
		runs, err := g.pass(g.config(defaultSeed))
		if err != nil {
			fmt.Println(err)
			return 1
		}
		fmt.Printf("\t%q: {\n", g.name)
		for _, p := range runs {
			c := countersOf(p)
			fmt.Printf("\t\t{%d, %d, %d, %d, %d}, // %s.%s\n", c[0], c[1], c[2], c[3], c[4], p.App, p.Policy)
		}
		fmt.Println("\t},")
	}
	fmt.Println("}")
	return 0
}
