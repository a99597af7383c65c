package engine

import "fmt"

// Workflow is a set of tasks connected by named streams. A job on a
// stream is consumed by the task whose Input is that stream; a job on a
// stream no task consumes is collected as a workflow result.
type Workflow struct {
	name  string
	tasks map[string]*TaskSpec // keyed by input stream
}

// NewWorkflow returns an empty workflow.
func NewWorkflow(name string) *Workflow {
	return &Workflow{name: name, tasks: make(map[string]*TaskSpec)}
}

// Name returns the workflow's name.
func (w *Workflow) Name() string { return w.name }

// AddTask registers a task. It returns an error if another task already
// consumes the same input stream (streams are point-to-point queues, as
// in Crossflow's job channels).
func (w *Workflow) AddTask(spec TaskSpec) error {
	if spec.Input == "" {
		return fmt.Errorf("workflow %s: task %q has no input stream", w.name, spec.Name)
	}
	if prev, dup := w.tasks[spec.Input]; dup {
		return fmt.Errorf("workflow %s: stream %q already consumed by task %q",
			w.name, spec.Input, prev.Name)
	}
	if spec.Fn == nil {
		spec.Fn = DefaultTask
	}
	s := spec
	w.tasks[spec.Input] = &s
	return nil
}

// MustAddTask is AddTask that panics on error, for static pipelines.
func (w *Workflow) MustAddTask(spec TaskSpec) {
	if err := w.AddTask(spec); err != nil {
		panic(err)
	}
}

// TaskFor returns the task consuming stream, if any.
func (w *Workflow) TaskFor(stream string) (*TaskSpec, bool) {
	t, ok := w.tasks[stream]
	return t, ok
}
