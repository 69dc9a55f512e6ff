package main

import (
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"
)

// num renders a value compactly and deterministically.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// ms renders a recorded simulated time (µs) as milliseconds.
func ms(us float64) string { return fmt.Sprintf("%.1f ms", us/1e3) }

// sparkRunes renders values as a unicode sparkline, scaled to their own
// min..max (a flat series renders as all-low).
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range vals {
		b.WriteRune(sparkLevels[int(scale(v, lo, hi)*float64(len(sparkLevels)-1))])
	}
	return b.String()
}

// scale maps finite v in [lo, hi] to [0, 1], and a flat range to 0. When
// hi-lo overflows to +Inf, it halves every term first: halving is exact,
// so the result is the same fraction, now finite.
func scale(v, lo, hi float64) float64 {
	switch d := hi - lo; {
	case d <= 0:
		return 0
	case math.IsInf(d, 0):
		return (v/2 - lo/2) / (hi/2 - lo/2)
	default:
		return (v - lo) / d
	}
}

func causeSummary(byCause map[string]int) string {
	causes := make([]string, 0, len(byCause))
	for c := range byCause {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	parts := make([]string, len(causes))
	for i, c := range causes {
		parts[i] = fmt.Sprintf("%s×%d", c, byCause[c])
	}
	return strings.Join(parts, ", ")
}

func dominantShare(v violationRow) string {
	bd := v.Breakdown
	total := bd.BaseCycles + bd.BankCycles + bd.NoCCycles + bd.MemCycles + bd.QueueCycles
	if total <= 0 {
		return "-"
	}
	comp := map[string]float64{
		"bank": bd.BankCycles, "noc": bd.NoCCycles,
		"mem": bd.MemCycles, "queue": bd.QueueCycles,
	}[v.Dominant]
	return pct(comp / total)
}

// renderMarkdown writes the report as GitHub-flavored markdown.
func renderMarkdown(w io.Writer, rep *report) error {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	p("# %s\n\n", rep.Title)
	p("## Inputs\n\n")
	for _, in := range rep.Inputs {
		p("- **%s** `%s` — %s\n", in.Kind, in.Name, in.Summary)
	}
	p("\n")

	if len(rep.Runs) > 0 {
		p("## SLO timeline\n\n")
		p("Worst per-epoch latency/deadline per design; values above 1 are violations.\n\n")
		p("| design | epochs | lc apps | reconfigs | violation epochs | worst lat/deadline | worst norm tail | batch speedup | timeline |\n")
		p("|---|---|---|---|---|---|---|---|---|\n")
		for _, r := range rep.Runs {
			p("| %s | %d (warmup %d) | %d/%d | %d | %d | %s | %s | %s | `%s` |\n",
				r.Design, r.Epochs, r.Warmup, r.LatCrit, r.Apps, r.Reconfigs,
				r.ViolationEpochs, num(r.WorstLatNorm), num(r.WorstNormTail),
				num(r.BatchSpeedup), sparkline(r.Timeline))
		}
		p("\n")
	}

	if len(rep.Churn) > 0 {
		p("## Reconfiguration churn\n\n")
		p("| design | reconfigs | causes | moved fraction (mean / max) | worst at | moved MB | invalidated lines |\n")
		p("|---|---|---|---|---|---|---|\n")
		for _, c := range rep.Churn {
			p("| %s | %d | %s | %s / %s | epoch %d (%s) | %s | %s |\n",
				c.Design, c.Reconfigs, causeSummary(c.ByCause),
				pct(c.MeanMoved), pct(c.MaxMoved), c.MaxMovedEpoch, ms(c.MaxMovedTimeUs),
				num(c.MovedMB), num(c.Invalidated))
		}
		p("\n")
	}

	if len(rep.TopViolations) > 0 {
		p("## Top SLO-violation attributions\n\n")
		p("| design | epoch | time | app | lat/deadline | slack (cycles) | dominant | dominant share | alloc MB |\n")
		p("|---|---|---|---|---|---|---|---|---|\n")
		for _, v := range rep.TopViolations {
			p("| %s | %d | %s | %s | %s | %s | %s | %s | %s |\n",
				v.Design, v.Epoch, ms(v.TimeUs), v.Name, num(v.LatNorm),
				num(v.SlackCycles), v.Dominant, dominantShare(v), num(v.AllocBytes/(1<<20)))
		}
		p("\n")
	}

	if len(rep.Alerts) > 0 {
		p("## Alerts (replayed over recorded series)\n\n")
		for _, a := range rep.Alerts {
			p("- **%s** `%s` epoch %d: %s\n", a.Rule, a.Series, a.Epoch, a.Message)
		}
		p("\n")
	}

	if len(rep.Series) > 0 {
		p("## Recorded time series\n\n")
		p("| series | samples | min | mean | max | last | tail |\n")
		p("|---|---|---|---|---|---|---|\n")
		for _, s := range rep.Series {
			name := s.Name
			if s.Dropped > 0 {
				name = fmt.Sprintf("%s (+%d evicted)", name, s.Dropped)
			}
			p("| %s | %d | %s | %s | %s | %s | `%s` |\n",
				name, s.Samples, num(s.Min), num(s.Mean), num(s.Max), num(s.Last), sparkline(s.Timeline))
		}
		p("\n")
	}

	if len(rep.Spans) > 0 {
		p("## Span summary\n\n")
		p("| phase | count | total ms | mean ms | share |\n")
		p("|---|---|---|---|---|\n")
		for _, s := range rep.Spans {
			p("| %s | %d | %s | %s | %s |\n", s.Name, s.Count, num(s.TotalMs), num(s.MeanMs), pct(s.Share))
		}
		p("\n")
	}

	if len(rep.Journal) > 0 {
		p("## Journalled cells\n\n")
		p("| sweep | cells | payload bytes |\n")
		p("|---|---|---|\n")
		for _, j := range rep.Journal {
			p("| %s | %d | %d |\n", j.Label, j.Cells, j.Bytes)
		}
		p("\n")
	}

	if len(rep.ProvVMs) > 0 {
		p("## Placement provenance\n\n")
		p("Why each VM landed where it did, from the `-provenance` log.\n\n")
		p("### Per-VM placement rationale (newest recorded reconfiguration)\n\n")
		p("| design | vm | epoch | reconfigs | decisions | stages | banks | candidates | eliminated | truncated |\n")
		p("|---|---|---|---|---|---|---|---|---|---|\n")
		for _, r := range rep.ProvVMs {
			p("| %s | %d | %d | %d | %d | %s | %s | %d | %s | %d |\n",
				r.Design, r.VM, r.Epoch, r.Epochs, r.Decisions, causeSummary(r.Stages),
				intList(r.Banks), r.Candidates, causeSummary(r.Eliminated), r.Truncated)
		}
		p("\n")
	}
	if len(rep.ProvBanks) > 0 {
		p("### Most-contested banks\n\n")
		p("Banks that lost the most placement contests (an eliminated candidate entry each).\n\n")
		p("| bank | granted | contested | reasons |\n")
		p("|---|---|---|---|\n")
		for _, r := range rep.ProvBanks {
			p("| %d | %d | %d | %s |\n", r.Bank, r.Granted, r.Contested, causeSummary(r.ByReason))
		}
		p("\n")
	}
	if len(rep.ProvMoves) > 0 {
		p("### Placement moves (why did VM X move?)\n\n")
		p("| design | vm | epoch | gained banks | lost banks | why |\n")
		p("|---|---|---|---|---|---|\n")
		for _, r := range rep.ProvMoves {
			p("| %s | %d | %d | %s | %s | %s |\n",
				r.Design, r.VM, r.Epoch, intList(r.Gained), intList(r.Lost), r.Why)
		}
		p("\n")
	}
	if len(rep.ProvValves) > 0 {
		p("### Fallback valves fired\n\n")
		p("| design | valve | count |\n")
		p("|---|---|---|\n")
		for _, r := range rep.ProvValves {
			p("| %s | %s | %d |\n", r.Design, r.Valve, r.Count)
		}
		p("\n")
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// svgSpark renders a timeline as an inline SVG polyline with a deadline
// rule at y=1 when the data crosses it.
func svgSpark(vals []float64, deadline bool) string {
	if len(vals) == 0 {
		return ""
	}
	const W, H = 240, 36
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if deadline {
		lo, hi = math.Min(lo, 1), math.Max(hi, 1)
	}
	x := func(i int) float64 {
		if len(vals) == 1 {
			return 0
		}
		return float64(i) / float64(len(vals)-1) * W
	}
	y := func(v float64) float64 { return H - scale(v, lo, hi)*(H-2) - 1 }
	var pts strings.Builder
	for i, v := range vals {
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", x(i), y(v))
	}
	rule := ""
	if deadline {
		fy := y(1)
		rule = fmt.Sprintf(`<line x1="0" y1="%.1f" x2="%d" y2="%.1f" stroke="#c33" stroke-dasharray="3,3"/>`, fy, W, fy)
	}
	return fmt.Sprintf(`<svg width="%d" height="%d" viewBox="0 0 %d %d">%s<polyline points="%s" fill="none" stroke="#369" stroke-width="1.5"/></svg>`,
		W, H, W, H, rule, pts.String())
}

// renderHTML writes the report as one self-contained HTML page (inline
// style, inline SVG sparklines, no external references).
func renderHTML(w io.Writer, rep *report) error {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	esc := html.EscapeString

	p("<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>%s</title>\n", esc(rep.Title))
	p(`<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 72em; padding: 0 1em; color: #222; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: left; }
th { background: #f4f4f4; }
td.n { text-align: right; font-variant-numeric: tabular-nums; }
h1 { border-bottom: 2px solid #369; padding-bottom: 0.2em; }
h2 { margin-top: 1.5em; }
code { background: #f4f4f4; padding: 0 0.25em; }
.alert { color: #a00; }
</style>
</head>
<body>
`)
	p("<h1>%s</h1>\n", esc(rep.Title))

	p("<h2>Inputs</h2>\n<ul>\n")
	for _, in := range rep.Inputs {
		p("<li><b>%s</b> <code>%s</code> — %s</li>\n", esc(in.Kind), esc(in.Name), esc(in.Summary))
	}
	p("</ul>\n")

	if len(rep.Runs) > 0 {
		p("<h2>SLO timeline</h2>\n<p>Worst per-epoch latency/deadline per design; values above the dashed rule violate the SLO.</p>\n")
		p("<table>\n<tr><th>design</th><th>epochs</th><th>lc apps</th><th>reconfigs</th><th>violation epochs</th><th>worst lat/deadline</th><th>worst norm tail</th><th>batch speedup</th><th>timeline</th></tr>\n")
		for _, r := range rep.Runs {
			p("<tr><td>%s</td><td class=n>%d (warmup %d)</td><td class=n>%d/%d</td><td class=n>%d</td><td class=n>%d</td><td class=n>%s</td><td class=n>%s</td><td class=n>%s</td><td>%s</td></tr>\n",
				esc(r.Design), r.Epochs, r.Warmup, r.LatCrit, r.Apps, r.Reconfigs,
				r.ViolationEpochs, num(r.WorstLatNorm), num(r.WorstNormTail),
				num(r.BatchSpeedup), svgSpark(r.Timeline, true))
		}
		p("</table>\n")
	}

	if len(rep.Churn) > 0 {
		p("<h2>Reconfiguration churn</h2>\n")
		p("<table>\n<tr><th>design</th><th>reconfigs</th><th>causes</th><th>moved fraction (mean / max)</th><th>worst at</th><th>moved MB</th><th>invalidated lines</th></tr>\n")
		for _, c := range rep.Churn {
			p("<tr><td>%s</td><td class=n>%d</td><td>%s</td><td class=n>%s / %s</td><td>epoch %d (%s)</td><td class=n>%s</td><td class=n>%s</td></tr>\n",
				esc(c.Design), c.Reconfigs, esc(causeSummary(c.ByCause)),
				pct(c.MeanMoved), pct(c.MaxMoved), c.MaxMovedEpoch, ms(c.MaxMovedTimeUs),
				num(c.MovedMB), num(c.Invalidated))
		}
		p("</table>\n")
	}

	if len(rep.TopViolations) > 0 {
		p("<h2>Top SLO-violation attributions</h2>\n")
		p("<table>\n<tr><th>design</th><th>epoch</th><th>time</th><th>app</th><th>lat/deadline</th><th>slack (cycles)</th><th>dominant</th><th>dominant share</th><th>alloc MB</th></tr>\n")
		for _, v := range rep.TopViolations {
			p("<tr><td>%s</td><td class=n>%d</td><td class=n>%s</td><td>%s</td><td class=n>%s</td><td class=n>%s</td><td>%s</td><td class=n>%s</td><td class=n>%s</td></tr>\n",
				esc(v.Design), v.Epoch, ms(v.TimeUs), esc(v.Name), num(v.LatNorm),
				num(v.SlackCycles), esc(v.Dominant), dominantShare(v), num(v.AllocBytes/(1<<20)))
		}
		p("</table>\n")
	}

	if len(rep.Alerts) > 0 {
		p("<h2>Alerts (replayed over recorded series)</h2>\n<ul>\n")
		for _, a := range rep.Alerts {
			p("<li class=alert><b>%s</b> <code>%s</code> epoch %d: %s</li>\n", esc(a.Rule), esc(a.Series), a.Epoch, esc(a.Message))
		}
		p("</ul>\n")
	}

	if len(rep.Series) > 0 {
		p("<h2>Recorded time series</h2>\n")
		p("<table>\n<tr><th>series</th><th>samples</th><th>min</th><th>mean</th><th>max</th><th>last</th><th>tail</th></tr>\n")
		for _, s := range rep.Series {
			name := esc(s.Name)
			if s.Dropped > 0 {
				name = fmt.Sprintf("%s <small>(+%d evicted)</small>", name, s.Dropped)
			}
			p("<tr><td><code>%s</code></td><td class=n>%d</td><td class=n>%s</td><td class=n>%s</td><td class=n>%s</td><td class=n>%s</td><td>%s</td></tr>\n",
				name, s.Samples, num(s.Min), num(s.Mean), num(s.Max), num(s.Last), svgSpark(s.Timeline, false))
		}
		p("</table>\n")
	}

	if len(rep.Spans) > 0 {
		p("<h2>Span summary</h2>\n")
		p("<table>\n<tr><th>phase</th><th>count</th><th>total ms</th><th>mean ms</th><th>share</th></tr>\n")
		for _, s := range rep.Spans {
			p("<tr><td>%s</td><td class=n>%d</td><td class=n>%s</td><td class=n>%s</td><td class=n>%s</td></tr>\n",
				esc(s.Name), s.Count, num(s.TotalMs), num(s.MeanMs), pct(s.Share))
		}
		p("</table>\n")
	}

	if len(rep.Journal) > 0 {
		p("<h2>Journalled cells</h2>\n")
		p("<table>\n<tr><th>sweep</th><th>cells</th><th>payload bytes</th></tr>\n")
		for _, j := range rep.Journal {
			p("<tr><td>%s</td><td class=n>%d</td><td class=n>%d</td></tr>\n", esc(j.Label), j.Cells, j.Bytes)
		}
		p("</table>\n")
	}

	if len(rep.ProvVMs) > 0 {
		p("<h2>Placement provenance</h2>\n<p>Why each VM landed where it did, from the <code>-provenance</code> log.</p>\n")
		p("<h3>Per-VM placement rationale (newest recorded reconfiguration)</h3>\n")
		p("<table>\n<tr><th>design</th><th>vm</th><th>epoch</th><th>reconfigs</th><th>decisions</th><th>stages</th><th>banks</th><th>candidates</th><th>eliminated</th><th>truncated</th></tr>\n")
		for _, r := range rep.ProvVMs {
			p("<tr><td>%s</td><td class=n>%d</td><td class=n>%d</td><td class=n>%d</td><td class=n>%d</td><td>%s</td><td>%s</td><td class=n>%d</td><td>%s</td><td class=n>%d</td></tr>\n",
				esc(r.Design), r.VM, r.Epoch, r.Epochs, r.Decisions, esc(causeSummary(r.Stages)),
				esc(intList(r.Banks)), r.Candidates, esc(causeSummary(r.Eliminated)), r.Truncated)
		}
		p("</table>\n")
	}
	if len(rep.ProvBanks) > 0 {
		p("<h3>Most-contested banks</h3>\n<p>Banks that lost the most placement contests (an eliminated candidate entry each).</p>\n")
		p("<table>\n<tr><th>bank</th><th>granted</th><th>contested</th><th>reasons</th></tr>\n")
		for _, r := range rep.ProvBanks {
			p("<tr><td class=n>%d</td><td class=n>%d</td><td class=n>%d</td><td>%s</td></tr>\n",
				r.Bank, r.Granted, r.Contested, esc(causeSummary(r.ByReason)))
		}
		p("</table>\n")
	}
	if len(rep.ProvMoves) > 0 {
		p("<h3>Placement moves (why did VM X move?)</h3>\n")
		p("<table>\n<tr><th>design</th><th>vm</th><th>epoch</th><th>gained banks</th><th>lost banks</th><th>why</th></tr>\n")
		for _, r := range rep.ProvMoves {
			p("<tr><td>%s</td><td class=n>%d</td><td class=n>%d</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				esc(r.Design), r.VM, r.Epoch, esc(intList(r.Gained)), esc(intList(r.Lost)), esc(r.Why))
		}
		p("</table>\n")
	}
	if len(rep.ProvValves) > 0 {
		p("<h3>Fallback valves fired</h3>\n")
		p("<table>\n<tr><th>design</th><th>valve</th><th>count</th></tr>\n")
		for _, r := range rep.ProvValves {
			p("<tr><td>%s</td><td>%s</td><td class=n>%d</td></tr>\n", esc(r.Design), esc(r.Valve), r.Count)
		}
		p("</table>\n")
	}

	p("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
