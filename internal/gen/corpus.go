package gen

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"gdeltmine/internal/gdelt"
)

// Event is one synthetic world event in compact corpus form.
type Event struct {
	// ID is the GlobalEventID.
	ID int64
	// Interval is the capture interval in which the event happened.
	Interval int32
	// Country indexes gdelt.Countries, or -1 for untagged events.
	Country int16
	// Headline marks mass-coverage events (Table III analogues).
	Headline bool
	// Reaction marks the follow-up companion of a headline event (the
	// "Reactions to ..." rows of Table III).
	Reaction bool
	// NoURL marks the injected missing-SourceURL defect.
	NoURL bool
	// FutureDay, when nonzero, overrides the recorded event day with a date
	// after the first article (the injected future-date defect).
	FutureDay int32
	// NumArticles is the number of mentions that survived generation.
	NumArticles int32
	// FirstMention is the capture interval of the earliest mention.
	FirstMention int32
	// FirstSource indexes the source of the earliest mention.
	FirstSource int32
	// Notes holds the event's GKG annotations (themes and entities).
	Notes Annotations
}

// Mention is one synthetic article in compact corpus form.
type Mention struct {
	// Event indexes Corpus.Events.
	Event int32
	// Source indexes World.Sources.
	Source int32
	// Interval is the capture interval in which the article was scraped.
	Interval int32
	// DocLen is the article length in characters.
	DocLen int32
	// Tone is the document tone.
	Tone float32
	// Confidence is the event-match confidence, 0..100.
	Confidence int8
}

// Corpus is a fully generated synthetic dataset in compact columnar form.
// Mentions are sorted by capture interval. Raw-file writing and direct
// store building both consume this one representation.
type Corpus struct {
	World    *World
	Events   []Event
	Mentions []Mention
	// dayYYYYMMDD caches the calendar date of each archive day.
	dayYYYYMMDD []int32
	// tailStart is the day offset of 1 January 2017, where the slow-tail
	// decay of tailScale begins.
	tailStart int
	// base is the global interval index of the archive start.
	base int64
	// themes is the GKG annotation model.
	themes *themeModel
}

// Generate builds the synthetic corpus for a configuration. Generation is
// deterministic in the configuration (including the seed).
func Generate(cfg Config) (*Corpus, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	c := &Corpus{World: w, themes: newThemeModel(cfg.Seed), base: cfg.Start.IntervalIndex()}
	c.precomputeCalendar()

	days := w.Days()
	lastInterval := int32(days*gdelt.IntervalsPerDay - 1)
	dayQuarter := make([]int, days)
	for d := 0; d < days; d++ {
		dayQuarter[d] = w.quarterOfDay(d)
	}
	activeCount := make([]int, w.Quarters())
	for q := range activeCount {
		activeCount[q] = w.ActiveSources(q)
	}

	headlineDays := headlineSchedule(cfg.HeadlineEvents, days)
	var nextID int64 = 100000

	// Scratch buffers reused across events.
	var drawn []int32
	groupSeen := make(map[int32]bool)

	for d := 0; d < days; d++ {
		rng := rand.New(rand.NewSource(subSeed(cfg.Seed, uint64(d)+0x100)))
		q := dayQuarter[d]
		rate := cfg.EventsPerDay * c.rateTrend(d)
		n := poisson(rng, rate)
		for e := 0; e < n; e++ {
			nextID++
			c.generateEvent(rng, nextID, d, q, activeCount[q], lastInterval, false, &drawn, groupSeen)
		}
		for _, hd := range headlineDays {
			if hd == d {
				nextID++
				c.generateEvent(rng, nextID, d, q, activeCount[q], lastInterval, true, &drawn, groupSeen)
				// The companion "reactions" event (Table III rows like
				// "Reactions to Orlando nightclub shooting").
				nextID++
				c.generateReactions(rng, nextID, d, q, activeCount[q], lastInterval)
			}
		}
	}

	c.finalize()
	c.injectDefects()
	return c, nil
}

// precomputeCalendar fills the day -> YYYYMMDD cache.
func (c *Corpus) precomputeCalendar() {
	days := c.World.Days()
	c.dayYYYYMMDD = make([]int32, days)
	t := c.World.Cfg.Start.Time()
	for d := 0; d < days; d++ {
		dt := t.AddDate(0, 0, d)
		c.dayYYYYMMDD[d] = int32(dt.Year()*10000 + int(dt.Month())*100 + dt.Day())
	}
	c.tailStart = c.dayIndexOfYear(2017)
}

// rateTrend is the event-arrival trend: stable through 2017, slightly lower
// in 2018 and 2019 (Figures 4 and 5 show the mild decline).
func (c *Corpus) rateTrend(day int) float64 {
	switch year := c.dayYYYYMMDD[day] / 10000; {
	case year <= 2017:
		return 1.0
	case year == 2018:
		return 0.95
	default:
		return 0.88
	}
}

// tailScale scales the slow-tail probability of publishing delays: 1.0
// through 2016, decaying to 0.35 by the end of 2019. This produces the
// declining average delay (Figure 10a) and falling count of >24h articles
// (Figure 11) while medians stay flat (Figure 10b). The decline must start
// early enough to overcome the delay-truncation ramp: year-scale delays can
// only be observed once the archive is a year old, which mechanically
// raises averages through 2016.
func (c *Corpus) tailScale(day int) float64 {
	date := c.dayYYYYMMDD[day]
	year := int(date / 10000)
	if year < 2017 {
		return 1.0
	}
	frac := float64(day-c.tailStart) / float64(c.World.Days()-c.tailStart)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return 1.0 - 0.65*frac
}

// dayIndexOfYear returns the day offset of 1 January of the given year,
// clamped into the archive.
func (c *Corpus) dayIndexOfYear(year int) int {
	target := int32(year * 10000)
	for d, date := range c.dayYYYYMMDD {
		if date > target {
			return d
		}
	}
	return len(c.dayYYYYMMDD) - 1
}

// headlineSchedule spreads n headline events evenly over the archive days.
func headlineSchedule(n, days int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		d := (i*2 + 1) * days / (2 * n)
		if d >= days {
			d = days - 1
		}
		out = append(out, d)
	}
	return out
}

func (c *Corpus) generateEvent(rng *rand.Rand, id int64, day, quarter, active int, lastInterval int32, headline bool, drawn *[]int32, groupSeen map[int32]bool) {
	w := c.World
	evInterval := int32(day*gdelt.IntervalsPerDay + rng.Intn(gdelt.IntervalsPerDay))
	country := int16(w.eventCountry.sample(rng))
	if int(country) == len(gdelt.Countries) {
		country = -1
	}
	if headline {
		country = int16(gdelt.CountryIndex("US"))
	}
	evIdx := int32(len(c.Events))
	c.Events = append(c.Events, Event{ID: id, Interval: evInterval, Country: country, Headline: headline,
		Notes: c.themes.sampleAnnotations(rng, headline)})

	ts := c.tailScale(day)
	emitted := 0
	if headline {
		// Mass coverage: every active source reports with probability 0.85.
		for s := range w.Sources {
			src := &w.Sources[s]
			if !src.activeAt(quarter) || rng.Float64() >= 0.85 {
				continue
			}
			if c.emitMention(rng, evIdx, int32(s), evInterval, ts, lastInterval) {
				emitted++
			}
		}
	} else {
		maxPop := active / 3
		if maxPop < 5 {
			maxPop = 5
		}
		k := paretoInt(rng, w.Cfg.PopularityAlpha, maxPop)
		*drawn = (*drawn)[:0]
		table := w.sourceByCountry[sourceTableIndex(country)]
		for a := 0; a < k; a++ {
			s := sampleActive(rng, table, w, quarter)
			if s < 0 {
				continue
			}
			*drawn = append(*drawn, s)
			if c.emitMention(rng, evIdx, s, evInterval, ts, lastInterval) {
				emitted++
			}
		}
		// Media-group cascade: when a co-owned outlet covers an anglo event,
		// sister outlets often follow (the Table IV block structure).
		if c.angloCountry(country) {
			for k := range groupSeen {
				delete(groupSeen, k)
			}
			anyGroup := false
			for _, s := range *drawn {
				if w.Sources[s].Group == 0 {
					anyGroup = true
					groupSeen[s] = true
				}
			}
			if anyGroup && rng.Float64() < 0.7 {
				joins := 0
				for _, m := range w.GroupMembers(0) {
					if joins >= 2 {
						break
					}
					if groupSeen[m] || !w.Sources[m].activeAt(quarter) {
						continue
					}
					if rng.Float64() < 0.5 {
						if c.emitMention(rng, evIdx, m, evInterval, ts, lastInterval) {
							emitted++
						}
						joins++
					}
				}
			}
		}
	}
	if emitted == 0 {
		// No surviving articles: the event was never observed; drop it.
		c.Events = c.Events[:len(c.Events)-1]
	}
}

// generateReactions emits the follow-up event that trails each headline
// event by a day with slightly lower coverage.
func (c *Corpus) generateReactions(rng *rand.Rand, id int64, day, quarter, active int, lastInterval int32) {
	w := c.World
	evInterval := int32(day*gdelt.IntervalsPerDay + rng.Intn(gdelt.IntervalsPerDay))
	evIdx := int32(len(c.Events))
	c.Events = append(c.Events, Event{ID: id, Interval: evInterval,
		Country: int16(gdelt.CountryIndex("US")), Headline: true, Reaction: true,
		Notes: c.themes.sampleAnnotations(rng, true)})
	ts := c.tailScale(day)
	emitted := 0
	for s := range w.Sources {
		src := &w.Sources[s]
		// Slightly below the igniting event's 0.85 coverage, so reaction
		// rows interleave with primary events in Table III as in the paper.
		if !src.activeAt(quarter) || rng.Float64() >= 0.80 {
			continue
		}
		if c.emitMention(rng, evIdx, int32(s), evInterval, ts, lastInterval) {
			emitted++
		}
	}
	if emitted == 0 {
		c.Events = c.Events[:len(c.Events)-1]
	}
}

func (c *Corpus) angloCountry(country int16) bool {
	if country < 0 {
		return false
	}
	switch gdelt.Countries[country].FIPS {
	case "UK", "US", "AS":
		return true
	}
	return false
}

func sourceTableIndex(country int16) int {
	if country < 0 {
		return len(gdelt.Countries)
	}
	return int(country)
}

// sampleActive draws a source from the table, rejecting sources inactive in
// the quarter. After a few failed tries it reports -1 and the article is
// skipped (events near sparse quarters lose some coverage, as real events
// in low-activity periods do).
func sampleActive(rng *rand.Rand, table *aliasTable, w *World, quarter int) int32 {
	for try := 0; try < 4; try++ {
		s := table.sample(rng)
		if w.Sources[s].activeAt(quarter) {
			return int32(s)
		}
	}
	return -1
}

// emitMention samples a delay for the source's speed profile and appends the
// mention unless it lands beyond the archive end. It reports whether a
// mention was emitted.
func (c *Corpus) emitMention(rng *rand.Rand, evIdx, srcIdx, evInterval int32, tailScale float64, lastInterval int32) bool {
	src := &c.World.Sources[srcIdx]
	delay := sampleDelay(rng, src, tailScale)
	mnInterval64 := int64(evInterval) + delay - 1
	if mnInterval64 > int64(lastInterval) {
		return false
	}
	docLen := int32(500 + rng.Intn(4500))
	if src.Group >= 0 {
		// Co-owned regional outlets push short pieces (Section VII).
		docLen = int32(300 + rng.Intn(500))
	}
	c.Mentions = append(c.Mentions, Mention{
		Event:      evIdx,
		Source:     srcIdx,
		Interval:   int32(mnInterval64),
		DocLen:     docLen,
		Tone:       float32(rng.NormFloat64()*2 - 1),
		Confidence: int8(20 + rng.Intn(81)),
	})
	return true
}

// sampleDelay draws a publishing delay in 15-minute intervals (>= 1) for a
// source. The mixtures implement the Figure 9 structure: lognormal bodies
// per speed class, clamping spikes at the news-cycle caps (24h / week /
// month), slow tails whose weight decays with tailScale over 2018-19, and a
// thin anniversary band just above one year that produces the shared
// ~35135-interval maxima of Table VIII.
func sampleDelay(rng *rand.Rand, src *Source, tailScale float64) int64 {
	const yearBandLo, yearBandHi = gdelt.IntervalsPerYear - 2*gdelt.IntervalsPerDay,
		gdelt.IntervalsPerYear + gdelt.IntervalsPerDay - 1 // 34848 .. 35135
	u := rng.Float64()
	switch src.Speed {
	case SpeedFast:
		if u < 0.01*tailScale {
			return int64(logUniform(rng, 96, 672))
		}
		return int64(logNormalClamped(rng, math.Log(4), 0.8, 1, 96))
	case SpeedAverage:
		pYear := 0.0008 * tailScale
		pMonth := 0.004 * tailScale
		pWeek := 0.02 * tailScale
		switch {
		case u < pYear:
			return int64(yearBandLo) + int64(rng.Intn(yearBandHi-yearBandLo+1))
		case u < pYear+pMonth:
			return int64(logUniform(rng, 672, 2880))
		case u < pYear+pMonth+pWeek:
			return int64(logUniform(rng, 96, 672))
		default:
			return int64(logNormalClamped(rng, math.Log(16), 1.0, 1, float64(src.CycleCap)))
		}
	case SpeedSlow:
		// Slow outlets modernize over 2018-19: as tailScale decays, a
		// growing share of their output follows the 24-hour cycle instead.
		// This drives the Figure 11 decline in >24h articles and the
		// falling average delay of Figure 10a.
		if rng.Float64() > tailScale {
			return int64(logNormalClamped(rng, math.Log(16), 1.0, 1, 96))
		}
		if u < 0.05*tailScale {
			return int64(yearBandLo) + int64(rng.Intn(yearBandHi-yearBandLo+1))
		}
		if u < 0.25 {
			return int64(logNormalClamped(rng, math.Log(48), 1.0, 1, float64(src.CycleCap)))
		}
		return int64(logUniform(rng, 96, float64(src.CycleCap)))
	default: // SpeedArchive
		// Archive republishers modernize like the slow group does; without
		// this their year-scale delays (which the archive can only contain
		// once it is a year old) would drive the quarterly average up
		// instead of down.
		if rng.Float64() > tailScale {
			return int64(logUniform(rng, 96, 2880))
		}
		if u < 0.5 {
			return int64(yearBandLo) + int64(rng.Intn(yearBandHi-yearBandLo+1))
		}
		return int64(logUniform(rng, 2880, gdelt.IntervalsPerYear))
	}
}

// finalize sorts mentions by capture interval, rebuilds per-event article
// counts and first-mention attribution, and drops nothing (events without
// mentions were already dropped during generation).
func (c *Corpus) finalize() {
	// The sort is not stable: mentions equal in all three keys keep the
	// order this pattern-defeating quicksort leaves, which golden_test.go
	// pins. Changing the algorithm changes the corpus.
	slices.SortFunc(c.Mentions, func(a, b Mention) int {
		if c := cmp.Compare(a.Interval, b.Interval); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Event, b.Event); c != 0 {
			return c
		}
		return cmp.Compare(a.Source, b.Source)
	})
	for i := range c.Events {
		c.Events[i].NumArticles = 0
		c.Events[i].FirstMention = math.MaxInt32
	}
	for _, m := range c.Mentions {
		ev := &c.Events[m.Event]
		ev.NumArticles++
		if m.Interval < ev.FirstMention {
			ev.FirstMention = m.Interval
			ev.FirstSource = m.Source
		}
	}
}

// injectDefects marks the configured number of missing-URL and future-date
// events, choosing deterministic victims spread across the corpus.
func (c *Corpus) injectDefects() {
	cfg := c.World.Cfg
	if len(c.Events) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(subSeed(cfg.Seed, 0xDEF)))
	pick := func(n int, mark func(*Event) bool) {
		for k := 0; k < n; {
			ev := &c.Events[rng.Intn(len(c.Events))]
			if mark(ev) {
				k++
			}
		}
	}
	pick(min(cfg.DefectMissingSourceURL, len(c.Events)), func(ev *Event) bool {
		if ev.NoURL {
			return false
		}
		ev.NoURL = true
		return true
	})
	pick(min(cfg.DefectFutureEventDate, len(c.Events)), func(ev *Event) bool {
		if ev.FutureDay != 0 || ev.NoURL {
			return false
		}
		// Recorded day 1-3 days after the first article's date.
		firstDay := int(ev.FirstMention) / gdelt.IntervalsPerDay
		shift := 1 + rng.Intn(3)
		di := firstDay + shift
		if di >= len(c.dayYYYYMMDD) {
			di = len(c.dayYYYYMMDD) - 1
			if int32(di*gdelt.IntervalsPerDay) <= ev.FirstMention {
				return false // cannot shift past the archive end
			}
		}
		ev.FutureDay = c.dayYYYYMMDD[di]
		return true
	})
}

// EventDay returns the recorded YYYYMMDD day of event i, honoring the
// future-date defect override.
func (c *Corpus) EventDay(i int) int32 {
	ev := &c.Events[i]
	if ev.FutureDay != 0 {
		return ev.FutureDay
	}
	return c.dayYYYYMMDD[int(ev.Interval)/gdelt.IntervalsPerDay]
}

// IntervalTimestamp returns the timestamp of the start of capture interval
// iv within this corpus.
func (c *Corpus) IntervalTimestamp(iv int32) gdelt.Timestamp {
	return gdelt.IntervalStart(c.base + int64(iv))
}

// EventRecord materializes event i as a full gdelt.Event row.
func (c *Corpus) EventRecord(i int) gdelt.Event {
	ev := &c.Events[i]
	rec := gdelt.Event{
		GlobalEventID: ev.ID,
		Day:           c.EventDay(i),
		EventCode:     190, // CAMEO "use conventional force" family placeholder
		QuadClass:     4,
		IsRootEvent:   true,
		Goldstein:     -2,
		NumMentions:   ev.NumArticles,
		NumSources:    ev.NumArticles,
		NumArticles:   ev.NumArticles,
		AvgTone:       -1,
		DateAdded:     c.IntervalTimestamp(ev.FirstMention),
	}
	if ev.Country >= 0 {
		rec.ActionCountry = gdelt.Countries[ev.Country].FIPS
	}
	if !ev.NoURL {
		rec.SourceURL = c.eventURL(ev)
	}
	return rec
}

// eventURL builds the first-article URL. Headline events get descriptive
// slugs so the ten-most-reported table reads like the paper's (mass
// shootings and their reaction follow-ups).
func (c *Corpus) eventURL(ev *Event) string {
	src := c.World.Sources[ev.FirstSource].Name
	year := c.dayYYYYMMDD[int(ev.Interval)/gdelt.IntervalsPerDay] / 10000
	switch {
	case ev.Reaction:
		return fmt.Sprintf("https://%s/reactions-to-mass-shooting-%d-%d", src, year, ev.ID)
	case ev.Headline:
		return fmt.Sprintf("https://%s/mass-shooting-%d-%d", src, year, ev.ID)
	}
	return c.articleURL(ev.FirstSource, ev.ID, 0)
}

// MentionRecord materializes mention j as a full gdelt.Mention row.
func (c *Corpus) MentionRecord(j int) gdelt.Mention {
	var rec gdelt.Mention
	c.mentionRecord(j, &rec, true)
	return rec
}

// LeanMentionRecord fills rec with mention j's row as store.Builder reads
// it: MentionRecord without the article URL (Identifier), which the builder
// never reads and which is most of the cost of a row.
func (c *Corpus) LeanMentionRecord(j int, rec *gdelt.Mention) {
	c.mentionRecord(j, rec, false)
}

// mentionRecord fills rec with mention j's row; the article URL only when
// full is set.
func (c *Corpus) mentionRecord(j int, rec *gdelt.Mention, full bool) {
	m := &c.Mentions[j]
	ev := &c.Events[m.Event]
	*rec = gdelt.Mention{
		GlobalEventID: ev.ID,
		EventTime:     c.IntervalTimestamp(ev.Interval),
		MentionTime:   c.IntervalTimestamp(m.Interval),
		MentionType:   gdelt.MentionTypeWeb,
		SourceName:    c.World.Sources[m.Source].Name,
		SentenceID:    1,
		Confidence:    m.Confidence,
		DocLen:        m.DocLen,
		DocTone:       gdelt.WireTone(m.Tone),
	}
	if full {
		rec.Identifier = c.articleURL(m.Source, ev.ID, j)
	}
}

func (c *Corpus) articleURL(src int32, eventID int64, k int) string {
	var buf [96]byte
	b := append(buf[:0], "https://"...)
	b = append(b, c.World.Sources[src].Name...)
	b = append(b, "/article/"...)
	b = strconv.AppendInt(b, eventID, 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(k), 10)
	return string(b)
}
