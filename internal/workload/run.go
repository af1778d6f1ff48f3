package workload

import (
	"fmt"

	"dynamo/internal/checkpoint"
	"dynamo/internal/machine"
)

// Run is every run's tail, shared by the facade Session and the sweep
// runner's executor: it registers the instance's sites on the machine's
// observability bus (when one is attached), populates the functional
// memory image, runs the programs from their start or, when ck is
// non-nil, resumes them from ck, and validates the result when the
// instance has a validator. The caller builds m; Run never configures it.
func (inst *Instance) Run(m *machine.Machine, ck *checkpoint.Checkpoint) (*machine.Result, error) {
	for _, site := range inst.Sites {
		m.Cfg.Obs.RegisterSite(site)
	}
	if inst.Setup != nil {
		inst.Setup(m.Sys.Data)
	}
	var res *machine.Result
	var err error
	if ck != nil {
		res, err = m.RunFrom(inst.Programs, ck)
	} else {
		res, err = m.Run(inst.Programs)
	}
	if err != nil {
		return nil, err
	}
	if inst.Validate != nil {
		if err := inst.Validate(m.Sys.Data); err != nil {
			return nil, fmt.Errorf("workload: functional validation failed: %w", err)
		}
	}
	return res, nil
}
