package shard

// ReviewerNetwork hands the Figure 1 fixture to the external tests.
var ReviewerNetwork = reviewerNetwork
