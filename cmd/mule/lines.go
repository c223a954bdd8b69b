package main

import (
	"bufio"
	"strconv"
)

// lineWriter formats one output line at a time into a reused buffer and
// hands each finished line to the bufio.Writer in a single Write. Its
// appenders are byte-identical to the fmt verbs every output mode used to
// print with — prob to %.9g, int to %d — without fmt's per-argument boxing,
// so a line costs no allocation once the buffer has grown to the longest
// line.
type lineWriter struct {
	w   *bufio.Writer
	buf []byte
}

func newLineWriter(w *bufio.Writer) *lineWriter {
	return &lineWriter{w: w, buf: make([]byte, 0, 256)}
}

// prob appends p as %.9g.
func (l *lineWriter) prob(p float64) { l.buf = strconv.AppendFloat(l.buf, p, 'g', 9, 64) }

// int appends v as %d.
func (l *lineWriter) int(v int) { l.buf = strconv.AppendInt(l.buf, int64(v), 10) }

// sep appends one separator byte.
func (l *lineWriter) sep(c byte) { l.buf = append(l.buf, c) }

// ints appends vs space-separated, each translated through id.
func (l *lineWriter) ints(vs []int, id func(int) int) {
	for i, v := range vs {
		if i > 0 {
			l.sep(' ')
		}
		l.int(id(v))
	}
}

// end terminates the line, writes it and resets the buffer. A write error
// is latched by the bufio.Writer and surfaces from its Flush.
func (l *lineWriter) end() {
	l.buf = append(l.buf, '\n')
	l.w.Write(l.buf)
	l.buf = l.buf[:0]
}

// identity is the vertex translation of unbatched output.
func identity(v int) int { return v }

// printClique writes one clique line: "p\tv1 v2 …".
func printClique(l *lineWriter, c []int, p float64, id func(int) int) {
	l.prob(p)
	l.sep('\t')
	l.ints(c, id)
	l.end()
}
