"""scrc: score candidate image regions by the likelihood of a text query
under a recurrent model of words, region features, spatial layout and
scene context; train it end to end and evaluate retrieval quality."""
