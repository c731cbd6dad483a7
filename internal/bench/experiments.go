package bench

import (
	"fmt"

	"amplify/internal/alloctrace"
	"amplify/internal/workload"
)

// experiment is one entry of the experiment table: what it measures
// and how it renders. The table is the only list of experiment names.
type experiment struct {
	name string
	// cells enumerates the memo cells the experiment reads: the
	// Precompute warm-up list, the cells of its report heap headline,
	// and the cells Explain can re-run.
	cells func(r *Runner) []cell
	// figure, when set, is the experiment's plotted data; it renders
	// as figure text and lands in the report as series.
	figure func(r *Runner) (*Figure, error)
	// render produces the text of an experiment that is not a figure.
	render func(r *Runner) (string, error)
	// report, when set, stamps the experiment's extra report fields.
	report func(r *Runner, rep *Report, er *ExperimentReport) error
}

// experiments is the experiment table, in `-exp all` order.
var experiments = []experiment{
	{name: "table1", cells: noCells, render: func(*Runner) (string, error) { return Table1(), nil }},
	{name: "fig4", cells: speedupCells(1), figure: func(r *Runner) (*Figure, error) { return r.SpeedupFigure(1) }},
	{name: "fig5", cells: speedupCells(2), figure: func(r *Runner) (*Figure, error) { return r.SpeedupFigure(2) }},
	{name: "fig6", cells: speedupCells(3), figure: func(r *Runner) (*Figure, error) { return r.SpeedupFigure(3) }},
	{name: "fig7", cells: speedupCells(1), figure: func(r *Runner) (*Figure, error) { return r.ScaleupFigure(1) }},
	{name: "fig8", cells: speedupCells(2), figure: func(r *Runner) (*Figure, error) { return r.ScaleupFigure(2) }},
	{name: "fig9", cells: speedupCells(3), figure: func(r *Runner) (*Figure, error) { return r.ScaleupFigure(3) }},
	{name: "fig10", cells: handmadeCells, figure: (*Runner).HandmadeFigure},
	{name: "fig11", cells: bgwFigureCells, figure: (*Runner).BGwFigure},
	{name: "claims", cells: claimsCells, render: (*Runner).Claims},
	{name: "memory", cells: memoryCells, render: (*Runner).Memory},
	{name: "pipeline", cells: pipelineCells, render: (*Runner).Pipeline},
	{name: "sensitivity", cells: sensitivityCells, render: (*Runner).Sensitivity},
	{name: "escape", cells: escapeCells, render: (*Runner).Escape, report: func(r *Runner, rep *Report, _ *ExperimentReport) error {
		var err error
		rep.Escape, err = r.EscapeVerdicts()
		return err
	}},
	{name: "scale", cells: scaleCells, render: (*Runner).Scale},
	{name: "contend", cells: contendCells, render: (*Runner).Contend},
	{name: "replay", cells: replayCells, render: (*Runner).Replay},
	{name: "endtoend", cells: endToEndCells, figure: (*Runner).EndToEndFigure, report: func(r *Runner, _ *Report, er *ExperimentReport) error {
		var err error
		er.EngineSpeedup, err = r.EngineSpeedup()
		return err
	}},
}

// Names lists the experiment names in `-exp all` order.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// Valid reports whether name is an experiment, naming them all when
// it is not.
func Valid(name string) error {
	_, err := lookup(name)
	return err
}

func lookup(name string) (*experiment, error) {
	for i := range experiments {
		if experiments[i].name == name {
			return &experiments[i], nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names())
}

// Run executes the named experiment and returns its rendered text.
func (r *Runner) Run(name string) (string, error) {
	return r.Render(name, "text")
}

// Render executes the named experiment and renders it as text, or a
// figure as CSV ("csv") or an ASCII chart ("chart"); experiments that
// are not figures render as text in every format.
func (r *Runner) Render(name, format string) (string, error) {
	e, err := lookup(name)
	if err != nil {
		return "", err
	}
	if e.figure == nil {
		return e.render(r)
	}
	f, err := e.figure(r)
	if err != nil {
		return "", err
	}
	switch format {
	case "csv":
		return f.CSV(), nil
	case "chart":
		return f.Chart(16), nil
	}
	return f.Render(), nil
}

// Figure returns the named figure's data, for callers that want the
// series rather than rendered text.
func (r *Runner) Figure(name string) (*Figure, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if e.figure == nil {
		return nil, fmt.Errorf("bench: %q has no figure data", name)
	}
	return e.figure(r)
}

func noCells(*Runner) []cell { return nil }

// treeGrid enumerates the tree cells of a speedup (and scaleup)
// figure: the shared 1-thread serial baseline and every strategy at
// every thread count of grid.
func (r *Runner) treeGrid(testCase int, strategies []string, grid []int) []cell {
	depth := depthOfCase(testCase)
	cells := []cell{r.treeCell("serial", depth, 1, 0)}
	for _, s := range strategies {
		for _, th := range grid {
			cells = append(cells, r.treeCell(s, depth, th, 0))
		}
	}
	return cells
}

func speedupCells(testCase int) func(r *Runner) []cell {
	return func(r *Runner) []cell { return r.treeGrid(testCase, speedupStrategies, r.Threads) }
}

func handmadeCells(r *Runner) []cell {
	return r.treeGrid(2, handmadeStrategies, r.WideThreads)
}

func bgwFigureCells(r *Runner) []cell {
	var cells []cell
	for _, v := range bgwVariants() {
		for _, th := range r.BGwThreads {
			cells = append(cells, r.bgwCell(v.strategy, v.amplify, v.objects, th))
		}
	}
	return cells
}

func claimsCells(r *Runner) []cell {
	var cells []cell
	for tc := 1; tc <= 3; tc++ {
		cells = append(cells, r.treeGrid(tc, speedupStrategies, r.Threads)...)
	}
	return append(cells, r.bgwCell("serial", false, false, 2), r.bgwCell("smartheap", true, false, 2))
}

func memoryCells(r *Runner) []cell {
	var cells []cell
	for _, s := range memoryStrategies {
		for _, depth := range []int{1, 3, 5} {
			cells = append(cells, r.treeCell(s, depth, 8, 0))
		}
	}
	return append(cells, r.cappedTreeCell(), r.bgwCell("smartheap", true, false, 4), r.shadowCapBGwCell())
}

func pipelineCells(r *Runner) []cell {
	var cells []cell
	for _, v := range pipelineVariants() {
		for _, w := range pipelineWorkerGrid {
			cells = append(cells, r.pipeCell(w, v.amplify, v.steal))
		}
	}
	return cells
}

func sensitivityCells(r *Runner) []cell {
	var cells []cell
	for _, p := range sensitivityProcs {
		cells = append(cells, r.treeCell("serial", 3, 1, p))
		for _, s := range sensitivityStrategies {
			cells = append(cells, r.treeCell(s, 3, p, p))
		}
	}
	return cells
}

func escapeCells(r *Runner) []cell {
	var cells []cell
	for _, w := range r.escWorkloads() {
		cells = append(cells, r.vmCell(escapeProgram(w, false)), r.vmCell(escapeProgram(w, true)))
	}
	return cells
}

func scaleCells(r *Runner) []cell {
	var cells []cell
	for _, pt := range r.scaleGrid() {
		cells = append(cells, scaleGridCell(pt))
	}
	return cells
}

func contendCells(r *Runner) []cell {
	var cells []cell
	for _, pt := range r.contendGrid() {
		for _, s := range r.contendAllocs() {
			cells = append(cells, r.contendCell(s, pt))
		}
	}
	return cells
}

func replayCells(*Runner) []cell {
	var cells []cell
	for _, corpus := range alloctrace.CorpusNames() {
		for _, s := range workload.ReplayStrategies() {
			cells = append(cells, replayCell(corpus, s))
		}
	}
	return cells
}

func endToEndCells(r *Runner) []cell {
	var cells []cell
	for _, row := range e2eRows() {
		for _, th := range e2eThreadGrid {
			cells = append(cells, r.vmCell(r.e2eProgram(row, th)))
		}
	}
	return cells
}
