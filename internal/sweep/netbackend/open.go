package netbackend

import (
	"errors"

	"github.com/fatgather/fatgather/internal/sweep"
)

// CheckMedium enforces the rules on where a sweep checkpoints and
// coordinates, shared by every front end: a sweep directory or a gatherd
// coordinator, never both; a coordinator URL of the form
// http(s)://host[:port]; and a medium for a cooperative worker (owner),
// whose leases live there. OpenStore applies it before opening anything.
func CheckMedium(dir, coordinator, owner string) error {
	if dir != "" && coordinator != "" {
		return errors.New("sweep: SweepDir and Coordinator are mutually exclusive (pick one coordination medium)")
	}
	if coordinator != "" {
		if _, err := coordinatorBase(coordinator); err != nil {
			return err
		}
	}
	if owner != "" && dir == "" && coordinator == "" {
		return errors.New("sweep: ShardOwner requires SweepDir or Coordinator (leases live in the shared sweep directory or on the coordinator)")
	}
	return nil
}

// OpenStore opens the store a front end's settings name: the sweep
// directory dir, or the store named store on the gatherd coordinator at
// coordinator. With neither it returns a nil store and no error: the sweep
// runs in memory. A coordinator store, or a directory opened by a fleet
// worker (sh.Owner set), is opened shared and always resumes —
// peers may be appending, and the record log is fleet state that no single
// worker may reset. Otherwise the directory is opened exclusively and reset
// unless resume is set. The warnings are the problems met while loading the
// store (corrupt lines skipped, version mismatches).
func OpenStore(dir, coordinator, store string, resume bool, sh sweep.Shard) (*sweep.Store, []string, error) {
	if err := CheckMedium(dir, coordinator, sh.Owner); err != nil {
		return nil, nil, err
	}
	if coordinator != "" {
		cli, err := NewClient(coordinator, store)
		if err != nil {
			return nil, nil, err
		}
		st, err := sweep.OpenBackend(cli)
		if err != nil {
			_ = cli.Close()
			return nil, nil, err
		}
		return st, st.Warnings(), nil
	}
	if dir == "" {
		return nil, nil, nil
	}
	sharded := sh.Owner != ""
	open := sweep.Open
	if sharded {
		open = sweep.OpenShared
	}
	st, err := open(dir)
	if err != nil {
		return nil, nil, err
	}
	if !resume && !sharded {
		if err := st.Reset(); err != nil {
			// Nothing was appended: the close cannot lose a record.
			_ = st.Close()
			return nil, nil, err
		}
	}
	return st, st.Warnings(), nil
}
