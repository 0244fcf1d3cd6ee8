package main

import (
	"encoding/json"
	"os"
	"sync"
)

// span is one timed call from the benchmark into the program. Parent is
// the index of the enclosing span, -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// spans records spans in memory during traced runs; a nil *spans (untraced
// runs) records nothing. Indices returned by begin are span IDs.
type spans struct {
	mu   sync.Mutex
	list []span
}

func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	now := mono()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{Name: name, StartNS: now, Parent: parent})
	return len(s.list) - 1
}

func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	now := mono()
	s.mu.Lock()
	s.list[id].EndNS = now
	s.mu.Unlock()
}

// write dumps the spans as JSON.
func (s *spans) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
