package main

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
)

// sseEvent is one Server-Sent Event. Data aliases the reader's buffer and
// is valid only until the callback returns.
type sseEvent struct {
	ID   uint64
	Type string
	Data []byte
}

var (
	sseID   = []byte("id:")
	sseType = []byte("event:")
	sseData = []byte("data:")
)

// eventName returns the event type; the journal's six names come back as
// constants (a switch on string(b) does not allocate), so the per-event
// path of a long tail allocates nothing.
func eventName(b []byte) string {
	switch string(b) {
	case "metric":
		return "metric"
	case "trial":
		return "trial"
	case "state":
		return "state"
	case "prune":
		return "prune"
	case "promote":
		return "promote"
	case "study":
		return "study"
	}
	return string(b)
}

// readSSE parses an event stream until EOF, calling fn once per event (at
// each blank line). Comment lines and unknown fields are ignored; a stream
// that ends mid-event drops the unterminated event, as the SSE spec says.
func readSSE(r io.Reader, fn func(sseEvent) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var ev sseEvent
	var data []byte
	have := false
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// One data line longer than the buffer: collect the rest.
			long := append([]byte(nil), line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil && len(line) == 0 {
			if err == io.EOF {
				return nil
			}
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if have {
				ev.Data = data
				if ferr := fn(ev); ferr != nil {
					return ferr
				}
			}
			ev, data, have = sseEvent{}, data[:0], false
		case bytes.HasPrefix(line, sseID):
			ev.ID, _ = strconv.ParseUint(string(bytes.TrimSpace(line[len(sseID):])), 10, 64)
			have = true
		case bytes.HasPrefix(line, sseType):
			ev.Type = eventName(bytes.TrimSpace(line[len(sseType):]))
			have = true
		case bytes.HasPrefix(line, sseData):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, bytes.TrimPrefix(line[len(sseData):], []byte(" "))...)
			have = true
		}
		if err == io.EOF {
			return nil
		}
	}
}
