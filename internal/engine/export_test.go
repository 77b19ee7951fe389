package engine

// JournalLen returns how many messages shard i's supervision journal
// holds. Call it only while the engine is quiescent (after Drain).
func JournalLen(e *Engine, i int) int { return len(e.shards[i].sup.journal) }
