package bare

// A test may hold an answer to its own tolerance: allowed.
const agreement = 1e-7
