package machine

// LineRecordsWithoutMeta counts the line table's records that carry no
// lineMeta. Each of them exists only for a private sharer, so the count
// is at most the number of lines the cores' L2s can hold.
func (m *Machine) LineRecordsWithoutMeta() int {
	n := 0
	for i := range m.lines.slots {
		if s := &m.lines.slots[i]; s.state == slotUsed && s.meta == 0 {
			n++
		}
	}
	return n
}
