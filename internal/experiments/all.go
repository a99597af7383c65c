package experiments

import (
	"fmt"
	"io"
)

// All runs the paper's whole evaluation and writes it to w: Figure 2,
// then Figures 3 and 4 and the headline summary from one grid, then the
// live Tables 1–3. It is what `xflow-experiments -run all` prints, and
// the checked-in goldens pin it. The grid's figure rows are returned
// for export.
func All(w io.Writer, sim SimOptions, live LiveOptions) ([]Fig3Row, []Fig4Row, error) {
	if err := WriteFigure2(w, sim); err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(w)
	cells, err := Grid(sim)
	if err != nil {
		return nil, nil, err
	}
	rows3, rows4 := FiguresFromGrid(cells)
	RenderFigure3(w, rows3)
	fmt.Fprintln(w)
	RenderFigure4(w, rows4)
	fmt.Fprintln(w)
	RenderSummary(w, Summarize(cells))
	fmt.Fprintln(w)
	if err := WriteTables(w, live); err != nil {
		return nil, nil, err
	}
	return rows3, rows4, nil
}

// WriteFigure2 runs Figure 2 and prints it to w. Figure 2 compares
// cold single executions, so sim.Iterations is ignored.
func WriteFigure2(w io.Writer, sim SimOptions) error {
	sim.Iterations = 0
	groups, err := Figure2(sim)
	if err != nil {
		return err
	}
	RenderFigure2(w, groups)
	return nil
}

// WriteTables runs the live MSR experiment and prints Tables 1–3 to w.
func WriteTables(w io.Writer, live LiveOptions) error {
	rows, err := Tables(live)
	if err != nil {
		return err
	}
	RenderTables(w, rows)
	return nil
}
