package tdma

import "time"

// oracleAnalyzeOne is the linear backlog scan the closed-form search
// replaced, kept verbatim as the differential oracle.
//
// oracleAnalyzeOne maximises R_n = n*cycle + C - delta-(n) over the backlog
// depth n.
func oracleAnalyzeOne(m Message, c, cycle time.Duration) Result {
	res := Result{Message: m, C: c, Deadline: m.Event.Period}
	if m.Deadline > 0 {
		res.Deadline = m.Deadline
	}
	best := time.Duration(0)
	bestN := 0
	for n := 1; ; n++ {
		if n > maxBacklog {
			res.WCRT = Unschedulable
			res.Schedulable = false
			return res
		}
		r := time.Duration(n)*cycle + c - m.Event.DeltaMin(n)
		if r > best {
			best = r
			bestN = n
		}
		// Once arrivals are spaced at least a cycle apart the backlog
		// cannot grow further and R_n is non-increasing from here on.
		if spacing := m.Event.DeltaMin(n+1) - m.Event.DeltaMin(n); spacing >= cycle && n > 1 {
			break
		}
	}
	res.WCRT = best
	res.BacklogInstances = bestN
	res.Schedulable = res.WCRT <= res.Deadline
	return res
}
