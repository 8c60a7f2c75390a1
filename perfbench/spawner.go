package main

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cosched/internal/dist"
)

// countingSpawner wraps a dist.Spawner and counts the JSON-lines frames
// and bytes crossing every worker pipe. Each worker's spawn is traced as
// a dist.spawn span from the Spawn call until the worker's first frame
// (its ready message).
type countingSpawner struct {
	inner  dist.Spawner
	rec    *recorder
	parent int

	frames atomic.Int64
	bytes  atomic.Int64
}

// Spawn implements dist.Spawner.
func (s *countingSpawner) Spawn(slot int) (*dist.WorkerProc, error) {
	start := time.Now()
	wp, err := s.inner.Spawn(slot)
	if err != nil {
		return nil, err
	}
	var once sync.Once
	ready := func() { once.Do(func() { s.rec.add("dist.spawn", s.parent, start, time.Now()) }) }
	wp.In = &countingWriter{WriteCloser: wp.In, s: s}
	wp.Out = &countingReader{ReadCloser: wp.Out, s: s, first: ready}
	return wp, nil
}

// count adds one transfer over a worker pipe; frames end in newlines.
func (s *countingSpawner) count(p []byte) {
	s.bytes.Add(int64(len(p)))
	s.frames.Add(int64(bytes.Count(p, []byte{'\n'})))
}

// countingWriter counts coordinator → worker frames.
type countingWriter struct {
	io.WriteCloser
	s *countingSpawner
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	w.s.count(p[:n])
	return n, err
}

// countingReader counts worker → coordinator frames.
type countingReader struct {
	io.ReadCloser
	s     *countingSpawner
	first func()
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	if n > 0 {
		r.first()
		r.s.count(p[:n])
	}
	return n, err
}
