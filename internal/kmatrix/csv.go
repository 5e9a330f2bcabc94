package kmatrix

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/can"
)

// csvHeader is the canonical column set of the CSV exchange format.
// Durations are encoded in microseconds, matching common OEM tooling.
var csvHeader = []string{
	"name", "id", "format", "dlc",
	"period_us", "jitter_us", "jitter_known", "deadline_us",
	"sender", "receivers",
}

// EncodeCSV writes the matrix in the CSV exchange format. The bus name
// and bit rate travel in a leading comment-like row ("#bus").
func (k *KMatrix) EncodeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"#bus", k.BusName, strconv.Itoa(k.BitRate)}); err != nil {
		return err
	}
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, m := range k.Messages {
		format := "standard"
		if m.Extended {
			format = "extended"
		}
		rec := []string{
			m.Name,
			fmt.Sprintf("0x%X", uint32(m.ID)),
			format,
			strconv.Itoa(m.DLC),
			strconv.FormatInt(m.Period.Microseconds(), 10),
			strconv.FormatInt(m.Jitter.Microseconds(), 10),
			strconv.FormatBool(m.JitterKnown),
			strconv.FormatInt(m.Deadline.Microseconds(), 10),
			m.Sender,
			strings.Join(m.Receivers, ";"),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// DecodeCSV parses the CSV exchange format produced by EncodeCSV.
func DecodeCSV(r io.Reader) (*KMatrix, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("kmatrix: reading CSV: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("kmatrix: CSV needs a #bus row and a header row")
	}
	if len(records[0]) != 3 || records[0][0] != "#bus" {
		return nil, fmt.Errorf("kmatrix: first row must be `#bus,<name>,<bitrate>`")
	}
	k := &KMatrix{BusName: records[0][1]}
	if k.BitRate, err = strconv.Atoi(records[0][2]); err != nil {
		return nil, fmt.Errorf("kmatrix: bad bit rate %q: %w", records[0][2], err)
	}
	if got := strings.Join(records[1], ","); got != strings.Join(csvHeader, ",") {
		return nil, fmt.Errorf("kmatrix: unexpected header %q", got)
	}
	for line, rec := range records[2:] {
		m, err := decodeRow(rec)
		if err != nil {
			return nil, fmt.Errorf("kmatrix: row %d: %w", line+3, err)
		}
		k.Messages = append(k.Messages, m)
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

func decodeRow(rec []string) (Message, error) {
	var m Message
	if len(rec) != len(csvHeader) {
		return m, fmt.Errorf("want %d fields, got %d", len(csvHeader), len(rec))
	}
	m.Name = rec[0]
	id, err := strconv.ParseUint(strings.TrimPrefix(rec[1], "0x"), 16, 32)
	if err != nil {
		return m, fmt.Errorf("bad id %q: %w", rec[1], err)
	}
	m.ID = can.ID(id)
	switch rec[2] {
	case "standard":
	case "extended":
		m.Extended = true
	default:
		return m, fmt.Errorf("bad format %q", rec[2])
	}
	if m.DLC, err = strconv.Atoi(rec[3]); err != nil {
		return m, fmt.Errorf("bad dlc %q: %w", rec[3], err)
	}
	if m.Period, err = microseconds(rec, 4); err != nil {
		return m, err
	}
	if m.Jitter, err = microseconds(rec, 5); err != nil {
		return m, err
	}
	if m.JitterKnown, err = strconv.ParseBool(rec[6]); err != nil {
		return m, fmt.Errorf("bad jitter_known %q: %w", rec[6], err)
	}
	if m.Deadline, err = microseconds(rec, 7); err != nil {
		return m, err
	}
	m.Sender = rec[8]
	if rec[9] != "" {
		m.Receivers = strings.Split(rec[9], ";")
	}
	return m, nil
}

// maxMicroseconds is the largest magnitude a duration column may carry:
// one more microsecond would not fit a time.Duration.
const maxMicroseconds = math.MaxInt64 / int64(time.Microsecond)

// microseconds decodes the duration column col of rec, refusing values
// whose nanoseconds would leave int64 (they used to wrap, and a wrapped
// period could pass validation and then no longer re-encode).
func microseconds(rec []string, col int) (time.Duration, error) {
	v, err := strconv.ParseInt(rec[col], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %w", csvHeader[col], rec[col], err)
	}
	if v > maxMicroseconds || v < -maxMicroseconds {
		return 0, fmt.Errorf("bad %s %q: outside ±%d µs", csvHeader[col], rec[col], maxMicroseconds)
	}
	return time.Duration(v) * time.Microsecond, nil
}
