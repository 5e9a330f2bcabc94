package optimize

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/can"
	"repro/internal/kmatrix"
	"repro/internal/parallel"
	"repro/internal/rta"
)

// Assignment maps message names to CAN identifiers. Only assignments
// that permute the matrix's existing identifier set are produced: the
// paper's optimization changes which message gets which ID, not the ID
// inventory itself.
type Assignment map[string]can.ID

// Apply returns a copy of the matrix with the assignment's identifiers.
// Messages absent from the assignment keep their IDs.
func Apply(k *kmatrix.KMatrix, a Assignment) *kmatrix.KMatrix {
	out := k.Clone()
	for i := range out.Messages {
		if id, ok := a[out.Messages[i].Name]; ok {
			out.Messages[i].ID = id
		}
	}
	return out
}

// Original extracts the matrix's current assignment.
func Original(k *kmatrix.KMatrix) Assignment {
	a := make(Assignment, len(k.Messages))
	for _, m := range k.Messages {
		a[m.Name] = m.ID
	}
	return a
}

// sortedIDs returns the matrix's identifier inventory in increasing
// (i.e. decreasing-priority) order.
func sortedIDs(k *kmatrix.KMatrix) []can.ID {
	ids := make([]can.ID, len(k.Messages))
	for i, m := range k.Messages {
		ids[i] = m.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// fromOrder builds an assignment giving the matrix's identifier
// inventory to messages in the given rank order (order[0] gets the
// lowest ID, i.e. the highest priority).
func fromOrder(k *kmatrix.KMatrix, order []int) Assignment {
	ids := sortedIDs(k)
	a := make(Assignment, len(order))
	for rank, idx := range order {
		a[k.Messages[idx].Name] = ids[rank]
	}
	return a
}

// DeadlineMonotonic assigns priorities by increasing effective deadline
// under the given deadline model — the classic heuristic an OEM would
// try first.
func DeadlineMonotonic(k *kmatrix.KMatrix, dm rta.DeadlineModel) Assignment {
	order := identityOrder(len(k.Messages))
	sort.SliceStable(order, func(a, b int) bool {
		da := dm.Deadline(k.Messages[order[a]].ToRTA())
		db := dm.Deadline(k.Messages[order[b]].ToRTA())
		if da != db {
			return da < db
		}
		return k.Messages[order[a]].Name < k.Messages[order[b]].Name
	})
	return fromOrder(k, order)
}

// RateMonotonic assigns priorities by increasing period.
func RateMonotonic(k *kmatrix.KMatrix) Assignment {
	order := identityOrder(len(k.Messages))
	sort.SliceStable(order, func(a, b int) bool {
		if k.Messages[order[a]].Period != k.Messages[order[b]].Period {
			return k.Messages[order[a]].Period < k.Messages[order[b]].Period
		}
		return k.Messages[order[a]].Name < k.Messages[order[b]].Name
	})
	return fromOrder(k, order)
}

// Audsley runs Audsley's optimal priority assignment: it fills priority
// levels from the lowest up, at each level picking any message that is
// schedulable there given that all still-unassigned messages sit above
// it. If every message can be placed the returned assignment is
// feasible; otherwise feasible is false and the assignment is the best
// partial attempt completed with the remaining messages in matrix order.
//
// The analysis configuration cfg supplies stuffing, error model and
// deadline model; its Bus field is overwritten from the matrix.
//
// At every level the candidate feasibility tests — each a full bus
// analysis — are independent, so they are evaluated on a worker pool in
// chunks of the pool width: the chunk preserves the seed behaviour of
// stopping at the first schedulable candidate in matrix order (at most
// one chunk of extra analyses), and the picked candidate is always the
// lowest-index schedulable one, so the result is identical to the
// serial search for every worker count.
//
// The candidate analyses run through a shared content-addressed store:
// within a level all candidates agree on the already-placed suffix, and
// across levels the unassigned block shrinks by one, so consecutive
// trials share most of their priority prefix. Cached per-message
// results are bit-identical to recomputation, keeping the search
// deterministic.
func Audsley(k *kmatrix.KMatrix, cfg rta.Config) (a Assignment, feasible bool, err error) {
	cfg.Bus = k.Bus()
	n := len(k.Messages)
	if n >= 0x100 {
		return nil, false, fmt.Errorf("optimize: Audsley supports at most %d messages, got %d", 0x100-1, n)
	}
	store := cache.NewLRU(0)
	workers := parallel.Workers(0)
	unassigned := identityOrder(n)
	order := make([]int, n) // order[rank] = message index
	var below []int         // messages already fixed at lower levels

	for level := n - 1; level >= 0; level-- {
		placed := -1 // index into unassigned of the placed candidate
		for lo := 0; lo < len(unassigned) && placed < 0; lo += workers {
			hi := lo + workers
			if hi > len(unassigned) {
				hi = len(unassigned)
			}
			chunk := unassigned[lo:hi]
			oks := make([]bool, len(chunk))
			aerrs := make([]error, len(chunk))
			parallel.For(len(chunk), workers, func(_, ci int) {
				oks[ci], aerrs[ci] = schedulableAtLevel(k, cfg, unassigned, below, chunk[ci], store)
			})
			if aerr := parallel.FirstError(aerrs); aerr != nil {
				return nil, false, aerr
			}
			for ci, ok := range oks {
				if ok {
					placed = lo + ci
					break
				}
			}
		}
		if placed < 0 {
			// Infeasible: complete the order arbitrarily for a usable
			// (if unschedulable) result.
			copy(order[:level+1], unassigned)
			return fromOrder(k, order), false, nil
		}
		cand := unassigned[placed]
		order[level] = cand
		unassigned = append(unassigned[:placed], unassigned[placed+1:]...)
		below = append(below, cand)
	}
	return fromOrder(k, order), true, nil
}

// schedulableAtLevel checks whether candidate cand meets its deadline
// when every other still-unassigned message sits above it and the
// already-placed messages sit below it (contributing blocking only).
// Audsley's optimality argument applies because the candidate's response
// time depends only on which messages are above and below, not on their
// relative order.
func schedulableAtLevel(k *kmatrix.KMatrix, cfg rta.Config, unassigned, below []int, cand int, store rta.ResultCache) (bool, error) {
	trial := make([]rta.Message, 0, len(unassigned)+len(below))
	for i, idx := range unassigned {
		m := k.Messages[idx].ToRTA()
		if idx == cand {
			m.Frame.ID = 0x100
		} else {
			m.Frame.ID = can.ID(i) // above the candidate
		}
		trial = append(trial, m)
	}
	for i, idx := range below {
		m := k.Messages[idx].ToRTA()
		m.Frame.ID = can.ID(0x200 + i) // below the candidate
		trial = append(trial, m)
	}
	rep, err := rta.AnalyzeCached(trial, cfg, store, 1)
	if err != nil {
		return false, err
	}
	res := rep.ByName(k.Messages[cand].Name)
	if res == nil {
		return false, fmt.Errorf("optimize: candidate %q missing from analysis", k.Messages[cand].Name)
	}
	return res.Schedulable, nil
}

func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
