package xmldoc

import (
	"io"
	"strings"
)

// WriteXML serializes the subtree rooted at n (or the whole document if
// n is the document node) as XML without extra whitespace.
func WriteXML(w io.Writer, n *Node) error {
	sw := &stickyWriter{w: w}
	writeNode(sw, n)
	return sw.err
}

// XMLString returns the XML serialization of the subtree rooted at n.
func XMLString(n *Node) string {
	var b strings.Builder
	_ = WriteXML(&b, n)
	return b.String()
}

// IndentedXMLString returns a pretty-printed serialization using two
// spaces per nesting level; text-only elements stay on one line.
func IndentedXMLString(n *Node) string {
	var b strings.Builder
	sw := &stickyWriter{w: &b}
	writeIndented(sw, n, 0)
	return b.String()
}

type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) str(v string) {
	if s.err != nil {
		return
	}
	_, s.err = io.WriteString(s.w, v)
}

func writeNode(w *stickyWriter, n *Node) {
	switch n.Kind {
	case DocumentNode:
		for _, c := range n.Children {
			writeNode(w, c)
		}
	case TextNode:
		w.str(escapeText(n.Value))
	case AttributeNode:
		// A bare attribute serializes as its value (as when a query
		// returns an attribute node into text content).
		w.str(escapeText(n.Value))
	case ElementNode:
		w.str("<" + n.Name)
		for _, a := range n.Attrs {
			w.str(" " + a.Name + `="` + escapeAttr(a.Value) + `"`)
		}
		if len(n.Children) == 0 {
			w.str("/>")
			return
		}
		w.str(">")
		for _, c := range n.Children {
			writeNode(w, c)
		}
		w.str("</" + n.Name + ">")
	}
}

func writeIndented(w *stickyWriter, n *Node, depth int) {
	ind := strings.Repeat("  ", depth)
	switch n.Kind {
	case DocumentNode:
		for _, c := range n.Children {
			writeIndented(w, c, depth)
		}
	case TextNode:
		w.str(ind + escapeText(n.Value) + "\n")
	case AttributeNode:
		w.str(ind + escapeText(n.Value) + "\n")
	case ElementNode:
		w.str(ind + "<" + n.Name)
		for _, a := range n.Attrs {
			w.str(" " + a.Name + `="` + escapeAttr(a.Value) + `"`)
		}
		if len(n.Children) == 0 {
			w.str("/>\n")
			return
		}
		if textOnly(n) {
			w.str(">" + escapeText(n.Text()) + "</" + n.Name + ">\n")
			return
		}
		w.str(">\n")
		for _, c := range n.Children {
			writeIndented(w, c, depth+1)
		}
		w.str(ind + "</" + n.Name + ">\n")
	}
}

func textOnly(n *Node) bool {
	for _, c := range n.Children {
		if c.Kind != TextNode {
			return false
		}
	}
	return true
}

// The escapers are built once: a strings.Replacer is safe for
// concurrent use, and building one per call allocated on every text
// node and attribute serialized.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")
)

func escapeText(s string) string { return textEscaper.Replace(s) }

func escapeAttr(s string) string { return attrEscaper.Replace(s) }
